(* The engine's benchmark: two workloads, each loading a different
   part of the stack.

   - [analytic]: the 22 TPC-H queries, warm. One closed-loop client
     re-executes prepared statements; execution tiers, runtime, pool
     and GC do almost all the work.
   - [adhoc]: the 22 TPC-H queries and the 6 metadata statements as
     text the engine has never seen, over a tiny database. One
     closed-loop client; parsing, planning, codegen, translation,
     compilation and the driver's per-query set-up dominate.

   Both run on a one-thread engine, and their times are scaled to a
   fixed machine speed (see "machine speed"). The serving path (wire
   protocol, sessions, scheduler, load generator) is measured in the
   traced run of both: the workload's statements over the wire in a
   closed loop, then the metadata statements in an open loop at a fixed
   rate.

   Untraced runs ([--trace 0]) report the end-to-end metrics. A traced
   run ([--trace 1]) times calls into each layer's public functions
   from this file (see [Spans]) and reads the layers' public counters.
   The last line on standard output is one JSON object with the
   metrics and the run's details; [run.py] turns it into the result
   line. Progress goes to standard error. *)

module E = Aeq.Engine
module D = Aeq_exec.Driver
module CM = Aeq_backend.Cost_model
module Q = Aeq_workload.Queries
module Net = Aeq_net

let now = Aeq_util.Clock.now

let ms s = s *. 1000.0

let say fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* ---- fixed workload constants ------------------------------------- *)

(* Scale factors. [adhoc_sf] keeps execution small next to the
   per-statement front half; [analytic_sf] makes execution dominate. *)
let analytic_sf = 0.05

let adhoc_sf = 0.0002

(* Open-loop rate of the metadata statements over the wire in the
   traced run, queries/s: never calibrated at run time. *)
let serving_rate = 100.0

let nproc = Domain.recommended_domain_count ()

(* The engines run on one thread, inline on the client's domain: no
   worker domain has to be scheduled, and no minor collection has to
   stop one, so a busy neighbour on a shared host moves the figures
   less. Parallel scaling is measured in the traced run, on a pool of
   [nproc] threads. *)
let engine_threads = 1

(* ---- small statistics ---------------------------------------------- *)

let quantile xs q =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs = exp (mean (List.map log xs))

let sum = List.fold_left ( +. ) 0.0

(* Samples grouped by statement name, in first-seen order. *)
let group pairs =
  let order = ref [] and tbl = Hashtbl.create 32 in
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | Some l -> l := v :: !l
      | None ->
        order := k :: !order;
        Hashtbl.replace tbl k (ref [ v ]))
    pairs;
  List.rev_map (fun k -> (k, List.rev !(Hashtbl.find tbl k))) !order

(* Mean over statements of each statement's median. *)
let mean_of_medians pairs = mean (List.map (fun (_, xs) -> median xs) (group pairs))

let peak_rss_mb () =
  let from_proc =
    try
      let ic = open_in "/proc/self/status" in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                  Some (float_of_int kb /. 1024.0))
            | _ -> scan ()
            | exception End_of_file -> None
          in
          scan ())
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* ---- run state: failures, guards, details --------------------------- *)

exception Guard_failed of string

let attempted = ref 0

let failed = ref 0

let wrong = ref 0

let problems : string list ref = ref []

let problem fmt =
  Printf.ksprintf
    (fun s ->
      say "%s" s;
      if List.length !problems < 20 then problems := s :: !problems)
    fmt

let guard cond fmt =
  Printf.ksprintf (fun s -> if not cond then raise (Guard_failed s)) fmt

let details : (string * Aeq_obs.Json.t) list ref = ref []

(* the last value recorded under a key wins *)
let detail k v = details := (k, v) :: List.remove_assoc k !details

let num x = Aeq_obs.Json.Num (if Float.is_finite x then x else -1.0)

(* ---- statements and the independent reference ---------------------- *)

let statements = function `Analytic -> Q.tpch | `Adhoc -> Q.tpch @ Q.metadata

(* Text the engine has not seen: the statement plus a unique trailing
   comment, so the plan cache (keyed by text) misses. *)
let fresh_text =
  let n = ref 0 in
  fun sql ->
    incr n;
    Printf.sprintf "%s\n-- perfbench %d" sql !n

let sort_rows rows = List.sort compare rows

(* Expected rows from the tuple-at-a-time Volcano executor, which
   shares no code with the VM, codegen or backend. *)
let reference e stmts =
  let refs =
    List.map
      (fun (name, sql) ->
        (name, sort_rows (Aeq_baseline.Volcano.execute (E.catalog e) (E.plan e sql))))
      stmts
  in
  detail "reference_rows"
    (Aeq_obs.Json.Obj (List.map (fun (n, rows) -> (n, num (float_of_int (List.length rows)))) refs));
  refs

let check_rows refs name (r : D.result) =
  let ok = sort_rows r.rows = List.assoc name refs in
  if not ok then begin
    incr wrong;
    problem "wrong result for %s" name
  end;
  ok

(* ---- set-up -------------------------------------------------------- *)

let make_engine ~sf ~seed =
  let e = E.create ~n_threads:engine_threads () in
  E.load_tpch ~seed:(Int64.of_int seed) e ~scale_factor:sf;
  e

let server_config = { Net.Server.default_config with port = 0; metrics_port = None }

let with_client port f =
  match Net.Client.connect ~client:"perfbench" ~port () with
  | Error err -> failwith ("connect: " ^ Net.Client.error_to_string err)
  | Ok c -> Fun.protect ~finally:(fun () -> Net.Client.close c) (fun () -> f c)

let wire_exec c sql =
  match Net.Client.execute c sql with
  | Ok rows -> rows
  | Error err -> failwith ("wire execute: " ^ Net.Client.error_to_string err)

(* ---- machine speed --------------------------------------------------- *)

(* On a shared host the speed of a core drifts by a quarter from minute
   to minute as neighbours come and go, and every timed figure would
   drift with it. So the benchmark times a calibration loop at most
   every 0.25 s, between statements and before each set-up, and scales
   each duration to a machine of fixed speed: duration × the loop's
   reference time ÷ the median of its last three times. The loop runs
   no engine code and allocates nothing, so a change to the engine does
   not move it. Its buffer matches the workload's working set: 8 MiB,
   beyond a core's private caches, for analytic, whose columns and hash
   tables live in the shared cache and memory; 256 KiB for adhoc, which
   runs out of a core's private caches. The reference times are the
   loops' typical times on the 2-core host the benchmark was made on.
   The raw figures go to the result file as well. The traced run does
   not scale. *)
let calibration = function
  | `Analytic -> (1 lsl 20, 0.008) (* buffer words, reference seconds *)
  | `Adhoc -> (1 lsl 15, 0.002)

let calibration_buf = ref [||]

let reference_s = ref 0.0

let calibration_setup w =
  let words, reference = calibration w in
  calibration_buf := Array.init words (fun i -> (i * 7919) land 0xffff);
  reference_s := reference

(* 2^20 steps of a sequential sum and a pseudo-random walk over
   [calibration_buf]. *)
let calibration_loop () =
  let a = !calibration_buf in
  let mask = Array.length a - 1 in
  let t0 = now () in
  let acc = ref 0 and j = ref 1 in
  for _ = 1 to (1 lsl 20) / Array.length a do
    for i = 0 to mask do
      j := ((!j * 1103515245) + 12345) land mask;
      acc := (!acc + a.(i)) lxor a.(!j)
    done
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

let calibrations : float list ref = ref [] (* loop times, latest first *)

let scale = ref 1.0

let last_calibration = ref neg_infinity

(* Once [calibration_setup] has run, time the loop again unless it was
   timed less than [every] seconds ago, and update [scale]. *)
let calibrate ?(every = 0.0) () =
  if Array.length !calibration_buf > 0 && now () -. !last_calibration >= every then begin
    calibrations := calibration_loop () :: !calibrations;
    last_calibration := now ();
    scale := !reference_s /. median (List.filteri (fun i _ -> i < 3) !calibrations)
  end

let scaled d = d *. !scale

(* One set-up: data load plus the warm-up the workload declares.
   analytic: every statement prepared and executed once; adhoc: none. *)
let setup workload ~seed =
  match workload with
  | `Analytic ->
    let e = make_engine ~sf:analytic_sf ~seed in
    List.iter (fun (_, sql) -> ignore (E.query e sql)) (statements `Analytic);
    e
  | `Adhoc -> make_engine ~sf:adhoc_sf ~seed

(* [n] set-ups, each timed and scaled; all but the last are closed.
   Returns the kept engine and the set-up times. *)
let timed_setups workload ~seed n =
  let rec go i acc prev =
    Option.iter E.close prev;
    Gc.full_major ();
    calibrate ();
    let t0 = now () in
    let env = setup workload ~seed in
    let acc = scaled (now () -. t0) :: acc in
    if i = n then (env, List.rev acc) else go (i + 1) acc (Some env)
  in
  go 1 [] None

(* ---- closed loop ----------------------------------------------------- *)

type closed = {
  latencies : (string * float) list;  (** (statement, scaled seconds), in order *)
  raw : (string * float) list;  (** the same, unscaled *)
  pass_rates : float list;  (** statements completed per scaled second, per pass *)
  raw_rates : float list;
}

(* One client, next statement only after the previous completes, full
   passes over [stmts] until [seconds] have elapsed. [run name sql]
   executes one statement and returns its result; it is timed. A pass's
   rate counts the statements' own time only, not the result checks or
   the calibration loop between them. *)
let closed_loop ~seconds ~stmts ~refs run =
  let lat = ref [] and raw = ref [] and rates = ref [] and raw_rates = ref [] in
  let deadline = now () +. seconds in
  while !rates = [] || now () < deadline do
    let completed = ref 0 and busy = ref 0.0 and busy_scaled = ref 0.0 in
    List.iter
      (fun (name, sql) ->
        calibrate ~every:0.25 ();
        incr attempted;
        let s = now () in
        match run name sql with
        | r ->
          let d = now () -. s in
          busy := !busy +. d;
          busy_scaled := !busy_scaled +. scaled d;
          if check_rows refs name r then begin
            incr completed;
            lat := (name, scaled d) :: !lat;
            raw := (name, d) :: !raw
          end
          else incr failed
        | exception (Guard_failed _ as g) -> raise g
        | exception exn ->
          incr failed;
          problem "%s failed: %s" name (Printexc.to_string exn))
      stmts;
    rates := (float_of_int !completed /. !busy_scaled) :: !rates;
    raw_rates := (float_of_int !completed /. !busy) :: !raw_rates
  done;
  { latencies = List.rev !lat; raw = List.rev !raw; pass_rates = !rates; raw_rates = !raw_rates }

let stmt_geomean pairs = geomean (List.map (fun (_, xs) -> median xs) (group pairs))

let closed_metrics c =
  let per_stmt = group c.latencies in
  let all = List.map snd c.latencies in
  (* the median pass, so that a burst of load from outside the process
     during a few passes does not move the figure *)
  let tput = median c.pass_rates in
  detail "passes" (num (float_of_int (List.length c.pass_rates)));
  detail "samples" (num (float_of_int (List.length all)));
  detail "calibration_ms" (num (ms (median !calibrations)));
  detail "raw_geomean_ms" (num (ms (stmt_geomean c.raw)));
  detail "raw_throughput_qps" (num (median c.raw_rates));
  detail "p99_ms" (num (ms (quantile all 0.99)));
  detail "statement_median_ms"
    (Aeq_obs.Json.Obj (List.map (fun (n, xs) -> (n, num (ms (median xs)))) per_stmt));
  [
    ("geomean_ms", ms (stmt_geomean c.latencies), "ms");
    ("throughput_qps", tput, "1/s");
    ("p50_ms", ms (median all), "ms");
    ("long_p50_ms", ms (median (List.assoc "q6" per_stmt)), "ms");
  ]

let cache_delta e f =
  let b = E.cache_stats e in
  let r = f () in
  let a = E.cache_stats e in
  (r, a.hits - b.hits, a.misses - b.misses)

(* The timed window of a closed-loop workload, with its cache-state
   guards: analytic re-executes prepared statements only (every
   execution reports [prepared_reuse], no plan-cache miss); adhoc only
   runs text the engine has not seen (no plan-cache hit). *)
let closed_window workload e ~seconds ~refs =
  let stmts = statements workload in
  let run name sql =
    match workload with
    | `Analytic ->
      let r = E.query e sql in
      guard r.stats.prepared_reuse "analytic: %s ran without prepared-statement reuse" name;
      r
    | `Adhoc -> E.query e (fresh_text sql)
  in
  let c, hits, misses = cache_delta e (fun () -> closed_loop ~seconds ~stmts ~refs run) in
  (match workload with
  | `Analytic -> guard (misses = 0) "analytic: %d plan-cache misses in the timed window" misses
  | `Adhoc -> guard (hits = 0) "adhoc: %d plan-cache hits in the timed window" hits);
  (c, hits, misses)

(* ---- open loop over the wire ---------------------------------------- *)

(* Rows over the wire must equal the in-process rows, which must equal
   the Volcano reference. *)
let wire_check e port ~refs stmts =
  with_client port (fun c ->
      List.iter
        (fun (name, sql) ->
          incr attempted;
          let r = E.query e sql in
          let expect = sort_rows (E.render_rows e r) in
          let got = (wire_exec c sql).rows |> List.map (String.concat "\t") |> sort_rows in
          if not (check_rows refs name r) then incr failed
          else if got <> expect then begin
            incr wrong;
            incr failed;
            problem "wire rows differ from in-process rows for %s" name
          end)
        stmts)

let lost (s : Net.Loadgen.summary) =
  List.fold_left (fun acc (_, n) -> acc + n) 0 s.failed
  + s.connect_errors + (s.offered - s.attempted)

let summary_json (s : Net.Loadgen.summary) =
  match Aeq_obs.Json.parse (Net.Loadgen.summary_to_json s) with
  | Ok j -> j
  | Error _ -> Aeq_obs.Json.Null

(* The metadata statements through [Aeq_net.Loadgen] on one connection,
   open loop at [serving_rate]: latency is timed from each scheduled
   arrival. *)
let open_loop ~port ~seed ~seconds =
  let s =
    Net.Loadgen.run
      {
        Net.Loadgen.default_config with
        port;
        rate = serving_rate;
        duration_seconds = seconds;
        connections = 1;
        seed = Int64.of_int seed;
        statements = List.map snd Q.metadata;
        use_prepared = false;
      }
  in
  attempted := !attempted + s.offered;
  failed := !failed + lost s;
  detail "open_loop" (summary_json s);
  s

(* ---- untraced run: end-to-end metrics -------------------------------- *)

(* A run is [databases] sub-runs, each set up afresh over its own
   database generated from the seed and timed for an equal share of the
   window, so that one run's figures average over several databases and
   engine instances. Set-up time is the median over all set-ups. The
   first sub-run sets up once, and peak memory is read after it, so it
   is that of one engine: later set-ups only add what the collector has
   not yet returned from earlier engines. Each later sub-run sets up
   [setups_per_database] times, so that the first set-up of the
   process, which is slower and varies most, does not decide the
   median. *)
let databases = function `Analytic -> 3 | `Adhoc -> 8

let setups_per_database = function `Analytic -> 3 | `Adhoc -> 16

let db_seed ~seed k = (seed * 8) + k

let end_to_end w ~seed ~seconds =
  calibration_setup w;
  let n = databases w in
  let rss = ref 0.0 in
  let subruns =
    List.init n (fun k ->
        let setups = if k = 0 then 1 else setups_per_database w in
        let e, setup_s = timed_setups w ~seed:(db_seed ~seed k) setups in
        let refs = reference e (statements w) in
        let c, _, _ = closed_window w e ~seconds:(seconds /. float_of_int n) ~refs in
        if k = 0 then rss := peak_rss_mb ();
        E.close e;
        (setup_s, c))
  in
  let setups = List.concat_map fst subruns and cs = List.map snd subruns in
  detail "setup_samples_s" (Aeq_obs.Json.Arr (List.map num setups));
  let c =
    {
      latencies = List.concat_map (fun c -> c.latencies) cs;
      raw = List.concat_map (fun c -> c.raw) cs;
      pass_rates = List.concat_map (fun c -> c.pass_rates) cs;
      raw_rates = List.concat_map (fun c -> c.raw_rates) cs;
    }
  in
  (("setup_s", median setups, "s") :: closed_metrics c) @ [ ("peak_rss_mb", !rss, "MiB") ]

(* ---- traced run: per-layer metrics ----------------------------------- *)

(* A statement prepared by the benchmark itself, executed the way the
   engine re-executes a cached one (adaptive, starting from the modes
   the previous execution converged to). *)
type own = { o_prep : D.prepared; mutable o_modes : CM.mode list option }

let own_prepare e (_, sql) =
  let p =
    D.prepare ~cost_model:(E.cost_model e) (E.catalog e) (E.plan e sql) ~n_threads:(E.n_threads e)
  in
  { o_prep = p; o_modes = None }

let own_exec ?pool ?(mode = D.Adaptive) e o =
  let pool = Option.value pool ~default:(E.pool e) in
  let initial_modes = if mode = D.Adaptive then o.o_modes else None in
  let r = D.execute_prepared ?initial_modes o.o_prep ~mode ~pool in
  if mode = D.Adaptive then o.o_modes <- Some r.final_cm_modes;
  r

let compiled_share results =
  let modes = List.concat_map (fun (r : D.result) -> r.final_cm_modes) results in
  let compiled = List.filter (fun m -> m <> CM.Bytecode) modes in
  float_of_int (List.length compiled) /. float_of_int (max 1 (List.length modes))

(* The layer spans on a statement's own path: a warm statement only
   executes; a cold one is parsed, planned and prepared first. *)
let on_path ~warm = if warm then [ "exec" ] else [ "sql.parse"; "plan.plan"; "driver.prepare"; "exec" ]

(* Traced closed loop: per statement, the decomposed path under a
   "stmt" span — warm: execution of a prepared statement the benchmark
   warmed itself; cold: parse, plan, prepare and execute — and the
   engine's own [Engine.query] of the same statement under an
   "engine.query" span. [text] makes adhoc statements new. Returns the
   loop, the decomposed path's executions, and the mean count of minor
   collections per [Engine.query]. *)
let traced_closed e ~warm ~text ~seconds ~refs stmts =
  let cat = E.catalog e in
  let owns = Hashtbl.create 32 in
  if warm then
    List.iter
      (fun stmt ->
        let o = own_prepare e stmt in
        ignore (own_exec e o);
        Hashtbl.replace owns (fst stmt) o)
      stmts;
  let execs = ref [] and minors = ref [] and n = ref 0 in
  let run name sql =
    let qid = Spans.fresh_qid () in
    let path () =
      Spans.root "stmt" ~qid ~stmt:name (fun () ->
          let exec f = Spans.span "exec" f in
          if warm then exec (fun () -> own_exec e (Hashtbl.find owns name))
          else
            let ast = Spans.span "sql.parse" (fun () -> Aeq_sql.Parser.parse (text sql)) in
            let plan = Spans.span "plan.plan" (fun () -> Aeq_plan.Planner.plan cat ast) in
            let p =
              Spans.span "driver.prepare" (fun () ->
                  D.prepare ~cost_model:(E.cost_model e) cat plan ~n_threads:(E.n_threads e))
            in
            exec (fun () -> D.execute_prepared p ~mode:D.Adaptive ~pool:(E.pool e)))
    in
    let query () =
      let m0 = (Gc.quick_stat ()).minor_collections in
      let r = Spans.root "engine.query" ~qid ~stmt:name (fun () -> E.query e (text sql)) in
      minors := float_of_int ((Gc.quick_stat ()).minor_collections - m0) :: !minors;
      r
    in
    (* alternate which of the two runs first, so neither always finds
       the caches the other warmed *)
    incr n;
    let p, r =
      if !n mod 2 = 0 then
        let p = path () in
        (p, query ())
      else
        let r = query () in
        (path (), r)
    in
    execs := (name, p) :: !execs;
    if not (check_rows refs name p) then incr failed;
    r
  in
  let c = closed_loop ~seconds ~stmts ~refs run in
  (c, List.rev !execs, mean !minors)

(* The traced loop's end-to-end figure: geomean over statements of the
   median [Engine.query] span. *)
let traced_geomean spans =
  geomean
    (List.map
       (fun (_, xs) -> median xs)
       (group (Spans.per_execution ~root:"engine.query" ~names:[ "engine.query" ] spans)))

(* Front half of every statement, once per repetition: parse, plan,
   codegen, bytecode translation, unoptimized and optimized compilation
   with real latencies only, and the driver's prepare. The counts are
   per statement, from the first repetition. *)
let front_half_probe e ~reps ~text stmts =
  let cat = E.catalog e in
  let cm = E.cost_model e in
  let mem = Aeq_storage.Catalog.arena cat in
  let counts = ref [] in
  for rep = 1 to reps do
    List.iter
      (fun (name, sql) ->
        let qid = Spans.fresh_qid () in
        Spans.root "probe" ~qid ~stmt:name (fun () ->
            let ast = Spans.span "sql.parse" (fun () -> Aeq_sql.Parser.parse (text sql)) in
            let plan = Spans.span "plan.plan" (fun () -> Aeq_plan.Planner.plan cat ast) in
            let layout = Aeq_plan.Physical.layout plan in
            let workers =
              Spans.span "codegen" (fun () -> Aeq_codegen.Codegen.all_workers plan layout)
            in
            let ctx =
              Aeq_rt.Context.create ~arena:mem ~dict:(Aeq_storage.Catalog.dict cat)
                ~n_threads:(E.n_threads e) ()
            in
            let symbols = Aeq_rt.Symbols.resolver ctx in
            let c = [| 0.0; 0.0; 0.0; 0.0; 0.0 |] in
            List.iter
              (fun f ->
                let n = Aeq_ir.Func.n_instrs f in
                let bc =
                  Spans.span "vm.translate" (fun () -> Aeq_vm.Translate.translate ~symbols f)
                in
                let compile mode =
                  Spans.span "backend.compile" (fun () ->
                      Aeq_backend.Compiler.compile ~cost_model:CM.off ~symbols ~mem ~mode f)
                in
                ignore (compile CM.Unopt);
                let opt = compile CM.Opt in
                let add i x = c.(i) <- c.(i) +. x in
                add 0 (float_of_int n);
                add 1 (float_of_int (Array.length bc.code));
                add 2 (float_of_int bc.n_reg_bytes);
                add 3 (float_of_int opt.n_instrs_after);
                add 4 (CM.compile_time cm CM.Unopt n +. CM.compile_time cm CM.Opt n))
              workers;
            ignore
              (Spans.span "driver.prepare" (fun () ->
                   D.prepare ~cost_model:cm cat plan ~n_threads:(E.n_threads e)));
            if rep = 1 then counts := c :: !counts))
      stmts
  done;
  let avg i = mean (List.map (fun c -> c.(i)) !counts) in
  [
    ("codegen.ir_instrs", avg 0, "count");
    ("vm.bc_ops", avg 1, "count");
    ("vm.reg_bytes", avg 2, "bytes");
    ("backend.instrs_after_opt", avg 3, "count");
    ("backend.compile_modeled_ms", ms (avg 4), "ms");
  ]

(* Geomean over statements of execution time, forced optimized ÷
   forced bytecode, on warmed prepared statements. *)
let tier_probe e ~reps stmts =
  geomean
    (List.map
       (fun stmt ->
         let o = own_prepare e stmt in
         ignore (own_exec e o);
         ignore (own_exec ~mode:D.Opt e o);
         ignore (own_exec ~mode:D.Bytecode e o);
         let t mode = (own_exec ~mode e o).stats.exec_seconds in
         let pairs = List.init reps (fun _ -> (t D.Opt, t D.Bytecode)) in
         median (List.map fst pairs) /. median (List.map snd pairs))
       stmts)

(* TPC-H Q1 and Q6 on a warmed prepared statement in the optimized
   tier, so no compilation or mode change falls into the measurement:
   minor-heap words allocated per lineitem row, counted on a 1-thread
   pool so that all the work runs on the measuring domain; and
   execution time on that pool ÷ on a pool of [nproc] threads. *)
let gc_pool_probe e ~reps =
  let rows = float_of_int (Aeq_storage.Catalog.table (E.catalog e) "lineitem").n_rows in
  let pool1 = Aeq_exec.Pool.create ~n_threads:1 () in
  let pool_n = Aeq_exec.Pool.create ~n_threads:nproc () in
  Fun.protect
    ~finally:(fun () ->
      Aeq_exec.Pool.shutdown pool1;
      Aeq_exec.Pool.shutdown pool_n)
    (fun () ->
      List.concat_map
        (fun n ->
          let q = "q" ^ string_of_int n in
          let o = own_prepare e (q, Q.tpch_q n) in
          let exec pool = own_exec ~pool ~mode:D.Opt e o in
          ignore (exec pool1);
          ignore (exec pool_n);
          let words =
            List.init reps (fun _ ->
                let w0 = (Gc.quick_stat ()).minor_words in
                ignore (exec pool1);
                (Gc.quick_stat ()).minor_words -. w0)
          in
          let t pool = (exec pool).stats.exec_seconds in
          let one = List.init reps (fun _ -> t pool1) in
          let wide = List.init reps (fun _ -> t pool_n) in
          [
            ("gc." ^ q ^ ".words_per_row", median words /. rows, "words/row");
            ("pool." ^ q ^ "_scaling", median one /. median wide, "ratio");
          ])
        [ 1; 6 ])

let result_frame (rows : Net.Client.rows) =
  Net.Protocol.Result
    {
      names = rows.names;
      dtypes = rows.dtypes;
      total_rows = List.length rows.rows;
      rows = rows.rows;
      more = false;
      exec_seconds = rows.exec_seconds;
    }

(* Closed loop on one connection: each statement over the wire, then
   in process. Returns, as means over statements, the wire overhead
   (difference of the two medians, ms), the in-process median (ms) and
   the response codec time (encode + decode of the statement's result
   frame, us). *)
let wire_probe e port ~reps ~text stmts =
  with_client port (fun c ->
      let per_stmt =
        List.map
          (fun (name, sql) ->
            let pairs =
              List.init reps (fun _ ->
                  let qid = Spans.fresh_qid () in
                  let t0 = now () in
                  let rows =
                    Spans.root "wire.execute" ~qid ~stmt:name (fun () -> wire_exec c (text sql))
                  in
                  let t1 = now () in
                  ignore (Spans.root "engine.query" ~qid ~stmt:name (fun () -> E.query e (text sql)));
                  (t1 -. t0, now () -. t1, rows))
            in
            let _, _, rows = List.hd pairs in
            let frame = Net.Protocol.encode_response (result_frame rows) in
            let payload = String.sub frame 4 (String.length frame - 4) in
            let n = 200 in
            let t0 = now () in
            for _ = 1 to n do
              ignore (Sys.opaque_identity (Net.Protocol.encode_response (result_frame rows)));
              ignore (Sys.opaque_identity (Net.Protocol.decode_response payload))
            done;
            let codec = (now () -. t0) /. float_of_int n in
            let wire = median (List.map (fun (w, _, _) -> w) pairs) in
            let inproc = median (List.map (fun (_, i, _) -> i) pairs) in
            (wire -. inproc, inproc, codec))
          stmts
      in
      let avg f = mean (List.map f per_stmt) in
      ( ms (avg (fun (d, _, _) -> d)),
        ms (avg (fun (_, i, _) -> i)),
        1e6 *. avg (fun (_, _, c) -> c) ))

let sched_metrics (s : Aeq_exec.Scheduler.stats) =
  [
    ("sched.avg_wait_ms", ms s.avg_wait_seconds, "ms");
    ("sched.max_wait_ms", ms s.max_wait_seconds, "ms");
    ("sched.max_queue_depth", float_of_int s.max_queue_depth, "count");
    ("sched.rejected", float_of_int s.rejected, "count");
    ("sched.degraded", float_of_int s.degraded, "count");
  ]

(* Layer metrics of the traced closed loop: where each statement's
   [Engine.query] time went. The covered time is the on-path layer
   spans; the rest is [engine.unattributed_ms], reported as is.
   Returns the metrics and the covered share of [Engine.query] time. *)
let loop_layers ~warm spans execs minors =
  let med pairs = List.map (fun (n, xs) -> (n, median xs)) (group pairs) in
  let query = med (Spans.per_execution ~root:"engine.query" ~names:[ "engine.query" ] spans) in
  let covered = med (Spans.per_execution ~root:"stmt" ~names:(on_path ~warm) spans) in
  let unattributed = mean (List.map (fun (n, q) -> q -. List.assoc n covered) query) in
  let share = sum (List.map (fun (n, _) -> List.assoc n covered) query) /. sum (List.map snd query) in
  let stat f = mean_of_medians (List.map (fun (n, (r : D.result)) -> (n, f r.stats)) execs) in
  ( [
      ("engine.unattributed_ms", ms unattributed, "ms");
      ("exec.ms", ms (mean_of_medians (Spans.per_execution ~root:"stmt" ~names:[ "exec" ] spans)), "ms");
      ("exec.in_query_compile_ms", ms (stat (fun s -> s.D.compile_seconds)), "ms");
      ("adaptive.compiled_share", compiled_share (List.map snd execs), "ratio");
      ("gc.minor_collections", minors, "count");
    ],
    share,
    ms unattributed )

let front_layers spans =
  List.map
    (fun (metric, name) ->
      (metric, ms (mean_of_medians (Spans.per_execution ~root:"probe" ~names:[ name ] spans)), "ms"))
    [
      ("sql.parse_ms", "sql.parse");
      ("plan.plan_ms", "plan.plan");
      ("codegen.ms", "codegen");
      ("vm.translate_ms", "vm.translate");
      ("backend.compile_real_ms", "backend.compile");
      ("driver.prepare_ms", "driver.prepare");
    ]


let hit_ratio hits misses = float_of_int hits /. float_of_int (max 1 (hits + misses))

(* The traced run: an untraced closed-loop window, then a traced one
   (their difference is the tracing overhead), then the probes, all on
   one engine. Then a server is started on the same engine: a
   closed-loop wire probe over the workload's statements, and an
   open-loop window of the metadata statements through [Loadgen], which
   gives the scheduler, plan-cache and generator counters, and whose
   p50 is split into engine time, scheduler wait and wire overhead.
   Wire rows are checked against the reference before and after that
   window. *)
let per_layer w ~seed ~seconds =
  let e = setup w ~seed in
  let stmts = statements w in
  let refs = reference e (Q.tpch @ Q.metadata) in
  let warm = w = `Analytic in
  let text = if warm then Fun.id else fresh_text in
  let reps = if warm then 2 else 5 in
  let window = seconds /. 4.0 in
  let untraced, _, _ = closed_window w e ~seconds:window ~refs in
  Spans.enabled := true;
  let _, execs, minors = traced_closed e ~warm ~text ~seconds:window ~refs stmts in
  let spans = Spans.all () in
  let loop, covered, unattributed = loop_layers ~warm spans execs minors in
  let overhead = (traced_geomean spans /. stmt_geomean untraced.raw) -. 1.0 in
  let counts = front_half_probe e ~reps ~text stmts in
  let probed =
    front_layers (Spans.all ())
    @ counts
    @ [ ("tier.opt_vs_bytecode", tier_probe e ~reps stmts, "ratio") ]
    @ gc_pool_probe e ~reps:3
  in
  let srv = Net.Server.start ~config:server_config e in
  let port = Net.Server.port srv in
  let serving =
    Fun.protect
      ~finally:(fun () -> Net.Server.stop srv)
      (fun () ->
        let wire, _, codec = wire_probe e port ~reps ~text stmts in
        wire_check e port ~refs Q.metadata;
        E.reset_stats e;
        let s, hits, misses = cache_delta e (fun () -> open_loop ~port ~seed ~seconds:window) in
        let sched = E.scheduler_stats e in
        wire_check e port ~refs Q.metadata;
        (* the open loop's p50 split into in-process engine time and wire
           overhead of the same (cached) statements, and scheduler wait *)
        let meta_wire, meta_engine, _ = wire_probe e port ~reps ~text:Fun.id Q.metadata in
        let p50 = ms s.p50_seconds and wait = ms sched.avg_wait_seconds in
        let uncovered = p50 -. meta_engine -. wait -. meta_wire in
        detail "serving_split_ms"
          (Aeq_obs.Json.Obj
             [
               ("client_p50", num p50);
               ("engine", num meta_engine);
               ("sched_wait", num wait);
               ("wire_overhead", num meta_wire);
               ("uncovered", num uncovered);
             ]);
        sched_metrics sched
        @ [
            ("plancache.hit_ratio", hit_ratio hits misses, "ratio");
            ("wire.overhead_ms", wire, "ms");
            ("wire.codec_us", codec, "us");
            ("loadgen.lateness_s", s.wall_seconds -. window, "s");
            ("loadgen.unsent", float_of_int (s.offered - s.attempted), "count");
            ("loadgen.p50_ms", ms s.p50_seconds, "ms");
            ("loadgen.p99_ms", ms s.p99_seconds, "ms");
            ("attr.serving_covered_share", (p50 -. uncovered) /. p50, "ratio");
            ("attr.serving_uncovered_ms", uncovered, "ms");
          ])
  in
  Spans.enabled := false;
  E.close e;
  loop @ probed @ serving
  @ [
      ("attr.covered_share", covered, "ratio");
      ("attr.uncovered_ms", unattributed, "ms");
      ("trace.overhead_ratio", overhead, "ratio");
    ]

(* ---- main ------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "analytic | adhoc");
      ("--seed", Arg.Set_int seed, "input seed (data and arrival schedule)");
      ("--seconds", Arg.Set_float seconds, "length of the timed window");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: per-layer metrics");
      ("--spans", Arg.Set_string spans_out, "traced run: write the spans to this file");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  let w =
    match !workload with
    | "analytic" -> `Analytic
    | "adhoc" -> `Adhoc
    | other ->
      prerr_endline ("perfbench: unknown workload " ^ other);
      exit 2
  in
  let metrics =
    try
      if !trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds
      else per_layer w ~seed:!seed ~seconds:!seconds
    with Guard_failed msg ->
      prerr_endline ("perfbench: cache-state guard failed: " ^ msg);
      exit 3
  in
  if !trace = 1 && !spans_out <> "" then Spans.write !spans_out (Spans.all ());
  let open Aeq_obs.Json in
  let json =
    Obj
      [
        ("workload", Str !workload);
        ("seed", num (float_of_int !seed));
        ("correct", Bool (!wrong = 0));
        ("attempted", num (float_of_int !attempted));
        ("failed", num (float_of_int !failed));
        ( "metrics",
          Obj (List.map (fun (n, v, u) -> (n, Obj [ ("value", num v); ("unit", Str u) ])) metrics) );
        ("problems", Arr (List.rev_map (fun p -> Str p) !problems));
        ( "config",
          Obj
            [
              ("nproc", num (float_of_int nproc));
              ("engine_threads", num (float_of_int engine_threads));
              ("ocaml_version", Str Sys.ocaml_version);
              ("analytic_sf", num analytic_sf);
              ("adhoc_sf", num adhoc_sf);
              ("serving_rate_qps", num serving_rate);
            ] );
        ("detail", Obj (List.rev !details));
      ]
  in
  print_endline (to_string json)
