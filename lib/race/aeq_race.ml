(* Lockset + vector-clock data-race detector.

   The design follows Eraser (locksets) and FastTrack (epoch-based
   vector clocks), cut down to what a deterministic test harness needs:

   - every domain carries a vector clock and the set of instrumented
     locks it holds (in domain-local state, touched only by its owner);
   - every instrumented lock carries the join of its releasers' clocks,
     protected by the lock's own mutex (it is only read/written while
     the mutex is held);
   - every declared location remembers its last write and a read
     frontier as (tid, epoch, site) triples; those are mutated by
     racing domains, so they live under one global detector mutex.

   The global mutex serializes instrumented accesses when the detector
   is armed — this is a correctness tool, not a production mode. When
   disarmed every hook is one atomic load and a branch. *)

module Control = struct
  let env = Sys.getenv_opt "AEQ_RACE"

  let flag =
    Atomic.make (match env with None | Some "" | Some "0" -> false | Some _ -> true)

  let fatal_flag = Atomic.make (match env with Some "fatal" -> true | _ -> false)

  let enabled () = Atomic.get flag

  let set_enabled b = Atomic.set flag b

  let fatal () = Atomic.get fatal_flag

  let set_fatal b = Atomic.set fatal_flag b

  let with_enabled b f =
    let prev = Atomic.get flag in
    Atomic.set flag b;
    Fun.protect ~finally:(fun () -> Atomic.set flag prev) f
end

type discipline = Lock of string | Atomic | Domain_local | Single_writer

let discipline_to_string = function
  | Lock n -> Printf.sprintf "Lock %S" n
  | Atomic -> "Atomic"
  | Domain_local -> "Domain_local"
  | Single_writer -> "Single_writer"

(* ------------------------------------------------------------------ *)
(* Vector clocks: int arrays indexed by detector tid, grown on demand. *)

let vc_get a i = if i < Array.length a then a.(i) else 0

let vc_ensure a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make n 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* ------------------------------------------------------------------ *)
(* Per-domain state. Only ever touched by the owning domain.           *)

type lock_inst = {
  li_name : string;
  li_m : Mutex.t;
  mutable li_vc : int array; (* join of releasers' clocks; guarded by li_m *)
}

type dstate = {
  tid : int;
  mutable vc : int array;
  mutable held : lock_inst list;
}

let next_tid = Atomic.make 0

let dstate_key =
  Domain.DLS.new_key (fun () ->
      let tid = Atomic.fetch_and_add next_tid 1 in
      let vc = Array.make (tid + 1) 0 in
      vc.(tid) <- 1;
      { tid; vc; held = [] })

let self () = Domain.DLS.get dstate_key

let join_into st src =
  st.vc <- vc_ensure st.vc (Array.length src);
  Array.iteri (fun i v -> if v > st.vc.(i) then st.vc.(i) <- v) src

let vc_join a b =
  let n = Stdlib.max (Array.length a) (Array.length b) in
  Array.init n (fun i -> Stdlib.max (vc_get a i) (vc_get b i))

let bump st = st.vc.(st.tid) <- st.vc.(st.tid) + 1

(* ------------------------------------------------------------------ *)
(* Detector-global state: locations, reports, registry. One mutex.     *)

let dlock = Mutex.create ()

let locked f =
  Mutex.lock dlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock dlock) f

(* -- registry -- *)

let registry : (string, discipline) Hashtbl.t = Hashtbl.create 64

let declare name disc =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | None -> Hashtbl.add registry name disc
      | Some d when d = disc -> ()
      | Some d ->
          invalid_arg
            (Printf.sprintf
               "Aeq_race.declare: %s redeclared as %s (was %s)" name
               (discipline_to_string disc) (discipline_to_string d)))

let disciplines () =
  locked (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* -- locations -- *)

type access = { a_tid : int; a_epoch : int; a_site : string }

type location = {
  x_name : string;
  x_disc : discipline;
  mutable x_owner : int; (* Domain_local: owning tid, -1 = unclaimed *)
  mutable x_write : access option;
  mutable x_reads : access list; (* at most one entry per tid *)
}

let locate name =
  let d = locked (fun () -> Hashtbl.find_opt registry name) in
  match d with
  | None -> invalid_arg ("Aeq_race.locate: undeclared location " ^ name)
  | Some d -> { x_name = name; x_disc = d; x_owner = -1; x_write = None; x_reads = [] }

(* -- reports -- *)

type report = {
  r_loc : string;
  r_kind : [ `Lockset | `Race ];
  r_msg : string;
  r_site_a : string;
  r_site_b : string;
}

let report_to_string r =
  Printf.sprintf "%s %s: %s"
    (match r.r_kind with `Lockset -> "lockset-violation" | `Race -> "data-race")
    r.r_loc r.r_msg

let max_reports = 256

let reports : report list ref = ref [] (* newest first; guarded by dlock *)

let n_pending = ref 0

let n_reports = ref 0

let dedup : (string, unit) Hashtbl.t = Hashtbl.create 64

(* called with dlock held *)
let emit ~loc ~kind ~site_a ~site_b msg =
  let k = loc ^ "|" ^ site_a ^ "|" ^ site_b in
  if not (Hashtbl.mem dedup k) then begin
    Hashtbl.add dedup k ();
    incr n_reports;
    let r = { r_loc = loc; r_kind = kind; r_msg = msg; r_site_a = site_a; r_site_b = site_b } in
    if !n_pending < max_reports then begin
      reports := r :: !reports;
      incr n_pending
    end;
    if Control.fatal () then begin
      prerr_endline ("AEQ_RACE fatal: " ^ report_to_string r);
      exit 70
    end
  end

let report_count () = locked (fun () -> !n_reports)

let take_reports () =
  locked (fun () ->
      let rs = List.rev !reports in
      reports := [];
      n_pending := 0;
      rs)

let reset () =
  locked (fun () ->
      reports := [];
      n_pending := 0;
      n_reports := 0;
      Hashtbl.reset dedup)

(* ------------------------------------------------------------------ *)
(* Access checking.                                                    *)

(* did [a] happen before the current state of [st]? (epoch test) *)
let hb a st = a.a_epoch <= vc_get st.vc a.a_tid

let slow_access ~is_write ~site loc =
  let st = self () in
  let what = if is_write then "write" else "read" in
  locked (fun () ->
      (* lockset / discipline-specific checks *)
      (match loc.x_disc with
      | Atomic -> ()
      | Lock lname ->
          if not (List.exists (fun l -> String.equal l.li_name lname) st.held) then
            emit ~loc:loc.x_name ~kind:`Lockset ~site_a:"" ~site_b:site
              (Printf.sprintf "%s at %s without holding lock %S" what site lname)
      | Domain_local ->
          if loc.x_owner = -1 then loc.x_owner <- st.tid
          else if loc.x_owner <> st.tid then begin
            (* ownership may only transfer through happens-before *)
            let ordered =
              (match loc.x_write with Some w -> hb w st | None -> true)
              && List.for_all (fun r -> hb r st) loc.x_reads
            in
            if not ordered then begin
              let prior =
                match loc.x_write with
                | Some w -> w
                | None -> List.hd loc.x_reads
              in
              emit ~loc:loc.x_name ~kind:`Race ~site_a:prior.a_site ~site_b:site
                (Printf.sprintf
                   "domain-local location touched by two domains without \
                    ordering: %s at %s (domain %d) vs %s at %s (domain %d)"
                   (match loc.x_write with Some _ -> "write" | None -> "read")
                   prior.a_site prior.a_tid what site st.tid)
            end;
            (* re-own either way so one bug yields one report, not a flood *)
            loc.x_owner <- st.tid
          end
      | Single_writer -> ());
      (* happens-before conflict checks (write/write, read/write) *)
      (match loc.x_disc with
      | Atomic -> ()
      | _ ->
          (match loc.x_write with
          | Some w when w.a_tid <> st.tid && not (hb w st) ->
              emit ~loc:loc.x_name ~kind:`Race ~site_a:w.a_site ~site_b:site
                (Printf.sprintf
                   "unordered write at %s (domain %d) vs %s at %s (domain %d)"
                   w.a_site w.a_tid what site st.tid)
          | _ -> ());
          if is_write then
            List.iter
              (fun r ->
                if r.a_tid <> st.tid && not (hb r st) then
                  emit ~loc:loc.x_name ~kind:`Race ~site_a:r.a_site ~site_b:site
                    (Printf.sprintf
                       "unordered read at %s (domain %d) vs write at %s (domain %d)"
                       r.a_site r.a_tid site st.tid))
              loc.x_reads);
      (* record this access *)
      let me = { a_tid = st.tid; a_epoch = vc_get st.vc st.tid; a_site = site } in
      if is_write then begin
        loc.x_write <- Some me;
        loc.x_reads <- []
      end
      else loc.x_reads <- me :: List.filter (fun r -> r.a_tid <> st.tid) loc.x_reads)

let[@inline] read ~site loc =
  if Atomic.get Control.flag then slow_access ~is_write:false ~site loc

let[@inline] write ~site loc =
  if Atomic.get Control.flag then slow_access ~is_write:true ~site loc

(* ------------------------------------------------------------------ *)
(* Instrumented locks.                                                 *)

module Lock_impl = struct
  type t = lock_inst

  let create name = { li_name = name; li_m = Mutex.create (); li_vc = [||] }

  let name l = l.li_name

  (* acquire edge: join the releasers' clock. Called with li_m held, so
     li_vc is stable. *)
  let acquired l =
    let st = self () in
    st.held <- l :: st.held;
    join_into st l.li_vc

  (* release edge: fold our clock into the lock, then advance our epoch
     so later accesses are not ordered before this release. Called with
     li_m still held. *)
  let releasing l =
    let st = self () in
    st.held <- (match st.held with m :: rest when m == l -> rest
               | held -> List.filter (fun m -> m != l) held);
    l.li_vc <- vc_join l.li_vc st.vc;
    bump st

  let lock l =
    Mutex.lock l.li_m;
    if Atomic.get Control.flag then acquired l

  let unlock l =
    if Atomic.get Control.flag then releasing l;
    Mutex.unlock l.li_m

  let with_ l f =
    lock l;
    Fun.protect ~finally:(fun () -> unlock l) f

  let wait c l =
    if Atomic.get Control.flag then begin
      (* the wait releases and re-acquires the mutex: mirror both edges,
         keeping the lock in our lockset (we are blocked in between, so
         no access can observe the stale entry). *)
      let st = self () in
      l.li_vc <- vc_join l.li_vc st.vc;
      bump st;
      Condition.wait c l.li_m;
      join_into st l.li_vc
    end
    else Condition.wait c l.li_m
end

module Lock = Lock_impl

(* ------------------------------------------------------------------ *)
(* Domain spawn/join and single-flight publication edges.              *)

(* final clocks of retired instrumented domains, keyed by domain id *)
let finished : (int, int array) Hashtbl.t = Hashtbl.create 16

let spawn f =
  (* the wrapper every spawn site goes through; where those sites may
     be is the domain-spawn lint's business *)
  (if not (Atomic.get Control.flag) then Domain.spawn f
  else begin
    let st = self () in
    let snap = Array.copy st.vc in
    bump st;
    Domain.spawn (fun () ->
        let cst = self () in
        join_into cst snap;
        Fun.protect
          ~finally:(fun () ->
            let id = (Domain.self () :> int) in
            let final = Array.copy cst.vc in
            locked (fun () -> Hashtbl.replace finished id final))
          f)
  end) [@lint.allow "domain-spawn"]

let join d =
  let r = Domain.join d in
  if Atomic.get Control.flag then begin
    let id = (Domain.get_id d :> int) in
    let final =
      locked (fun () ->
          match Hashtbl.find_opt finished id with
          | Some vc ->
              Hashtbl.remove finished id;
              Some vc
          | None -> None)
    in
    match final with
    | Some vc -> join_into (self ()) vc
    | None -> ()
  end;
  r

(* one global publication channel: sound (extra edges can only mask
   races, never invent them) and enough for the engine's single-flight
   compile publication *)
let pub_vc = ref [||]

let publish () =
  if Atomic.get Control.flag then begin
    let st = self () in
    locked (fun () -> pub_vc := vc_join !pub_vc st.vc);
    bump st
  end

let consume () =
  if Atomic.get Control.flag then begin
    let st = self () in
    let vc = locked (fun () -> !pub_vc) in
    join_into st vc
  end
