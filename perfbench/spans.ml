(* Span recorder for the traced run.

   Spans are taken around calls into the engine's layers from the
   benchmark's own code: the engine itself is not instrumented. Each
   span has a name, a start and an end, the span that encloses it, the
   top-level span it hangs under ([root]), and the statement execution
   it belongs to ([qid], one id per execution, plus the statement's
   name). Spans stay in memory until [write] at the end of the run.

   Only the benchmark's main thread records spans, so the recorder
   needs no locking. *)

type span = {
  id : int;
  parent : int;  (** -1 for a top-level span *)
  root : string;  (** name of the top-level span above this one *)
  name : string;
  qid : int;
  stmt : string;
  start : float;
  stop : float;
}

let enabled = ref false

let recorded : span list ref = ref []

let next_id = ref 0

let next_qid = ref 0

(* open spans, innermost first: (id, root, qid, stmt) *)
let stack : (int * string * int * string) list ref = ref []

let fresh_qid () =
  incr next_qid;
  !next_qid

let record ~name ~root ~parent ~qid ~stmt f =
  let id = !next_id in
  incr next_id;
  stack := (id, root, qid, stmt) :: !stack;
  let start = Aeq_util.Clock.now () in
  let close () =
    let stop = Aeq_util.Clock.now () in
    stack := List.tl !stack;
    recorded := { id; parent; root; name; qid; stmt; start; stop } :: !recorded
  in
  match f () with
  | r ->
    close ();
    r
  | exception e ->
    close ();
    raise e

(* A top-level span for one statement execution. *)
let root name ~qid ~stmt f =
  if not !enabled then f () else record ~name ~root:name ~parent:(-1) ~qid ~stmt f

(* A span inside the innermost open one; it inherits root, qid and
   statement. Outside any open span it is not recorded. *)
let span name f =
  match !stack with
  | (parent, root, qid, stmt) :: _ when !enabled ->
    record ~name ~root ~parent ~qid ~stmt f
  | _ -> f ()

let all () = List.rev !recorded

let duration s = s.stop -. s.start

(* Self time: a span's duration minus the part its direct children
   cover (children of one span run one after another). *)
let self_times spans =
  let covered = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id)))
    spans

(* Per statement execution under [root], the summed self time of the
   spans whose name is in [names]: one (statement name, seconds) per
   execution that has any. *)
let per_execution ~root ~names spans =
  let by_qid = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      if s.root = root && List.mem s.name names then
        let stmt, acc =
          Option.value ~default:(s.stmt, 0.0) (Hashtbl.find_opt by_qid s.qid)
        in
        Hashtbl.replace by_qid s.qid (stmt, acc +. self))
    (self_times spans);
  Hashtbl.fold (fun _ v acc -> v :: acc) by_qid []

let write path spans =
  let json =
    let open Aeq_obs.Json in
    Arr
      (List.map
         (fun (s, self) ->
           Obj
             [
               ("id", Num (float_of_int s.id));
               ("parent", Num (float_of_int s.parent));
               ("root", Str s.root);
               ("name", Str s.name);
               ("qid", Num (float_of_int s.qid));
               ("stmt", Str s.stmt);
               ("start_us", Num (Float.round (s.start *. 1e6)));
               ("end_us", Num (Float.round (s.stop *. 1e6)));
               ("self_us", Num (Float.round (self *. 1e6)));
             ])
         (self_times spans))
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Aeq_obs.Json.to_string json))
