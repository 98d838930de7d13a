type t = {
  arena : Aeq_mem.Arena.t;
  lease : Aeq_mem.Arena.lease option;
  dict : Dict.t;
  n_threads : int;
  allocators : Aeq_mem.Arena.allocator array;
  mutable hts : Hash_table.t array;
  mutable aggs : Agg.t array;
  mutable outs : Output.t array;
  mutable preds : Bitmap.t array;
}

let create ?lease ~arena ~dict ~n_threads () =
  let mk _ =
    match lease with
    | Some l -> Aeq_mem.Arena.lease_allocator l
    | None -> Aeq_mem.Arena.allocator arena
  in
  {
    arena;
    lease;
    dict;
    n_threads;
    allocators = Array.init (Stdlib.max 1 n_threads) mk;
    hts = [||];
    aggs = [||];
    outs = [||];
    preds = [||];
  }

let append arr x = Array.append arr [| x |]

let register_ht t ht =
  t.hts <- append t.hts ht;
  Array.length t.hts - 1

let register_agg t a =
  t.aggs <- append t.aggs a;
  Array.length t.aggs - 1

let register_out t o =
  t.outs <- append t.outs o;
  Array.length t.outs - 1

let register_pred t p =
  t.preds <- append t.preds p;
  Array.length t.preds - 1

let allocator t ~tid = t.allocators.(tid)

(* Current execution context of this domain. Compiled artifacts are
   shared across concurrent executions of a cached plan, so their
   runtime closures cannot bake in one context; instead each pipeline
   worker installs its query's context here and the Symbols resolver
   reads it back per call. *)
let current_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* TEST ONLY — resurrect the pre-per-query-context bug. Before
   contexts became domain-local, "the current context" was one global
   ref; two concurrent queries would stomp each other's installation
   and route hash-table inserts / output appends into the wrong
   query's runtime objects. The deterministic simulator flips this
   flag to prove it can find that race from a seed; nothing in the
   engine sets it. *)
let unsafe_global_current = Atomic.make false

let global_current : t option ref = ref None

(* the sound DLS path is domain-local by construction and is NOT
   instrumented; only the deliberately unsound global ref is, so the
   race detector flags exactly the resurrected bug and nothing else *)
let () = Aeq_race.declare "rt.context.global_current" Aeq_race.Domain_local

let global_loc = Aeq_race.locate "rt.context.global_current"

let install v =
  if Atomic.get unsafe_global_current then begin
    Aeq_race.write ~site:"context.install" global_loc;
    global_current := v
  end
  else Domain.DLS.get current_key := v

let set_current t = install (Some t)

let clear_current () = install None

let local_current () = !(Domain.DLS.get current_key)

let shared_current () =
  Aeq_race.read ~site:"context.current" global_loc;
  !global_current

let current_reader () =
  if Atomic.get unsafe_global_current then shared_current else local_current
