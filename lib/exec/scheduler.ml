module Clock = Aeq_util.Clock
module Prng = Aeq_util.Prng
module QE = Query_error
module Obs = Aeq_obs

(* Event counters mirrored into the metrics registry. Registration is
   get-or-create and these fire at most once per query, so the lookup
   cost is irrelevant; the registry mutex is a leaf lock, safe to take
   under [t.lock]. *)
let obs_bump name ~help =
  if Obs.Control.enabled () then
    Obs.Metrics.inc (Obs.Metrics.counter ("aeq_scheduler_" ^ name ^ "_total") ~help)

(* Guarded-by declarations for the race detector. [t.lock] covers four
   logical locations so reports say *what* raced, not just "scheduler
   state": the admission queues, the counters, the in-flight set, and
   the circuit breaker. Each ticket's mutable fields are their own
   location under that ticket's lock. *)
let () =
  Aeq_race.declare "sched.queues" (Aeq_race.Lock "sched.lock");
  Aeq_race.declare "sched.counters" (Aeq_race.Lock "sched.lock");
  Aeq_race.declare "sched.running" (Aeq_race.Lock "sched.lock");
  Aeq_race.declare "sched.breaker" (Aeq_race.Lock "sched.lock");
  Aeq_race.declare "sched.ticket" (Aeq_race.Lock "sched.ticket.lock")

type priority = Low | Normal | High

let priority_name = function Low -> "low" | Normal -> "normal" | High -> "high"

(* dispatch order: highest class first, FIFO within a class *)
let queue_index = function High -> 0 | Normal -> 1 | Low -> 2

type config = {
  queue_capacity : int;
  shed_queue_depth : int;
  shed_resident_bytes : int option;
  deadline_grace : float;
  breaker_threshold : int;
  breaker_window : float;
  breaker_cooldown : float;
  breaker_cooldown_max : float;
  max_retries : int;
  retry_backoff : float;
  seed : int64;
}

let default_config =
  {
    queue_capacity = 64;
    shed_queue_depth = 48;
    shed_resident_bytes = None;
    deadline_grace = 0.25;
    breaker_threshold = 5;
    breaker_window = 30.0;
    breaker_cooldown = 0.5;
    breaker_cooldown_max = 30.0;
    max_retries = 2;
    retry_backoff = 0.01;
    seed = 0x5CEDC0FFEEL;
  }

type outcome = (Driver.result, QE.t) result

type state = Queued | Running | Done of outcome

type ticket = {
  tk_id : int;
  tk_sql : string;
  tk_mode : Driver.mode;
  tk_priority : priority;
  tk_deadline_seconds : float option;
  tk_deadline : float option; (* absolute, against Clock.now *)
  tk_submitted : float;
  tk_cancel : Cancel.t;
  tk_lock : Aeq_race.Lock.t;
  tk_cond : Condition.t;
  tk_loc : Aeq_race.location;
  mutable tk_state : state;
  mutable tk_started : float; (* -1. until dispatched *)
  mutable tk_degraded : bool;
  mutable tk_retries : int;
}

type breaker_state = Closed | Open | Half_open

let breaker_state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half_open"

type stats = {
  admitted : int;
  rejected : int;
  shed : int;
  expired : int;
  retried : int;
  in_flight : int;
  completed : int;
  failed : int;
  degraded : int;
  timeouts : int;
  breaker_trips : int;
  breaker_state : breaker_state;
  queue_depth : int;
  max_queue_depth : int;
  avg_wait_seconds : float;
  max_wait_seconds : float;
  crashed_tickets : int;
  domain_crashes : int;
  domain_restarts : int;
}

let zero_stats =
  {
    admitted = 0;
    rejected = 0;
    shed = 0;
    expired = 0;
    retried = 0;
    in_flight = 0;
    completed = 0;
    failed = 0;
    degraded = 0;
    timeouts = 0;
    breaker_trips = 0;
    breaker_state = Closed;
    queue_depth = 0;
    max_queue_depth = 0;
    avg_wait_seconds = 0.0;
    max_wait_seconds = 0.0;
    crashed_tickets = 0;
    domain_crashes = 0;
    domain_restarts = 0;
  }

(* Lock order, everywhere: [t.lock] before [tk_lock], never the
   reverse. [await] and the ticket accessors take only [tk_lock]. *)
type t = {
  cfg : config;
  exec :
    mode:Driver.mode ->
    cancel:Cancel.t ->
    timeout_seconds:float option ->
    string ->
    Driver.result;
  arena : Aeq_mem.Arena.t option;
  pool : Pool.t;
  lock : Aeq_race.Lock.t;
  queues_loc : Aeq_race.location;
  counters_loc : Aeq_race.location;
  running_loc : Aeq_race.location;
  breaker_loc : Aeq_race.location;
  queues : ticket Queue.t array; (* [High; Normal; Low] *)
  ids : int Atomic.t;
  prng : Prng.t; (* jitter; drawn under [lock] *)
  mutable queued : int; (* live (state Queued) tickets across queues *)
  mutable stopped : bool;
  mutable draining : bool; (* admission closed; in-flight may finish *)
  running_tks : (int, ticket) Hashtbl.t;
      (* in-flight tickets by id — what drain waits for and cancels *)
  on_domain_crash : name:string -> exn -> unit;
  (* circuit breaker *)
  mutable brk : breaker_state;
  mutable brk_until : float; (* Open: earliest half-open probe *)
  mutable brk_consecutive : int; (* consecutive opens, drives backoff *)
  mutable probe : int option; (* ticket id of the in-flight half-open probe *)
  failures : float Queue.t; (* compile-failure timestamps, sliding window *)
  (* counters *)
  mutable n_admitted : int;
  mutable n_rejected : int;
  mutable n_shed : int;
  mutable n_expired : int;
  mutable n_retried : int;
  mutable n_completed : int;
  mutable n_failed : int;
  mutable n_degraded : int;
  mutable n_timeouts : int;
  mutable n_breaker_trips : int;
  mutable n_crashed_tickets : int;
  mutable max_depth : int;
  mutable total_wait : float;
  mutable n_waits : int;
  mutable max_wait : float;
  retry_waiter : Aeq_util.Waiter.t;
      (* retry backoff sleep of every serving worker; woken by drain
         and shutdown so a retrying query never stalls them by a full
         backoff *)
  quiet_waiter : Aeq_util.Waiter.t;
      (* poked whenever in-flight work finishes; [drain] and [shutdown]
         sleep on it *)
}

let with_lock m f = Aeq_race.Lock.with_ m f

(* ---- ticket helpers -------------------------------------------------- *)

let is_done tk =
  with_lock tk.tk_lock (fun () ->
      Aeq_race.read ~site:"sched.is_done" tk.tk_loc;
      match tk.tk_state with Done _ -> true | Queued | Running -> false)

let complete tk outcome =
  with_lock tk.tk_lock (fun () ->
      Aeq_race.write ~site:"sched.complete" tk.tk_loc;
      match tk.tk_state with
      | Done _ -> () (* first completion wins *)
      | Queued | Running ->
        tk.tk_state <- Done outcome;
        Condition.broadcast tk.tk_cond)

let await tk =
  with_lock tk.tk_lock (fun () ->
      let rec wait () =
        Aeq_race.read ~site:"sched.await" tk.tk_loc;
        match tk.tk_state with
        | Done o -> o
        | Queued | Running ->
          Aeq_race.Lock.wait tk.tk_cond tk.tk_lock;
          wait ()
      in
      wait ())

let poll tk =
  with_lock tk.tk_lock (fun () ->
      Aeq_race.read ~site:"sched.poll" tk.tk_loc;
      match tk.tk_state with Done o -> Some o | Queued | Running -> None)

let cancel tk = Cancel.cancel tk.tk_cancel

let wait_seconds tk =
  with_lock tk.tk_lock (fun () ->
      Aeq_race.read ~site:"sched.wait_seconds" tk.tk_loc;
      if tk.tk_started < 0.0 then -1.0 else tk.tk_started -. tk.tk_submitted)

let was_degraded tk =
  with_lock tk.tk_lock (fun () ->
      Aeq_race.read ~site:"sched.was_degraded" tk.tk_loc;
      tk.tk_degraded)

let retries tk =
  with_lock tk.tk_lock (fun () ->
      Aeq_race.read ~site:"sched.retries" tk.tk_loc;
      tk.tk_retries)

(* ---- circuit breaker (all under t.lock) ------------------------------ *)

let breaker_trip t now =
  Aeq_race.write ~site:"sched.breaker_trip" t.breaker_loc;
  t.brk <- Open;
  t.probe <- None;
  t.n_breaker_trips <- t.n_breaker_trips + 1;
  obs_bump "breaker_trips" ~help:"Circuit-breaker transitions to open.";
  let cap =
    Stdlib.min t.cfg.breaker_cooldown_max
      (t.cfg.breaker_cooldown *. (2.0 ** float_of_int t.brk_consecutive))
  in
  t.brk_consecutive <- t.brk_consecutive + 1;
  (* full jitter, floored at 10% of the cap so an open breaker is
     observably open (a zero-length cooldown would probe instantly) *)
  t.brk_until <- now +. (0.1 *. cap) +. Prng.float t.prng (0.9 *. cap)

(* May a query dispatched now spend compile budget? Promotes Open →
   Half_open (electing this ticket as the probe) once the cooldown has
   passed. *)
let breaker_allow t tk_id now =
  Aeq_race.write ~site:"sched.breaker_allow" t.breaker_loc;
  match t.brk with
  | Closed -> true
  | Half_open -> false (* a probe is already in flight *)
  | Open ->
    if now >= t.brk_until then begin
      t.brk <- Half_open;
      t.probe <- Some tk_id;
      true
    end
    else false

(* Digest one served query into the breaker. [n_cf] is the number of
   compile failures its attempts reported (degradations from Ok
   results and Compile_failed errors alike — the attempt loop already
   counted both). *)
let breaker_feed t tk outcome n_cf =
  Aeq_race.write ~site:"sched.breaker_feed" t.breaker_loc;
  let now = Clock.now () in
  if t.probe = Some tk.tk_id then begin
    t.probe <- None;
    let probe_ok = match outcome with Ok _ -> n_cf = 0 | Error _ -> false in
    if probe_ok then begin
      t.brk <- Closed;
      t.brk_consecutive <- 0;
      Queue.clear t.failures
    end
    else breaker_trip t now (* re-open, cooldown doubled *)
  end
  else if t.brk = Closed && n_cf > 0 then begin
    for _ = 1 to n_cf do
      Queue.push now t.failures
    done;
    while
      (not (Queue.is_empty t.failures))
      && Queue.peek t.failures < now -. t.cfg.breaker_window
    do
      ignore (Queue.pop t.failures)
    done;
    if Queue.length t.failures >= t.cfg.breaker_threshold then breaker_trip t now
  end

(* ---- execution with retry -------------------------------------------- *)

(* Runs outside t.lock (takes it briefly for jitter draws and retry
   accounting). Returns the outcome plus the compile failures seen
   across attempts, for the breaker. *)
let attempt_loop t tk eff_mode =
  let rec go attempt cf_acc =
    (* the driver checks its timeout at every morsel boundary: hand it
       what is left of the client's deadline, plus the grace *)
    let timeout_seconds =
      Option.map (fun d -> d +. t.cfg.deadline_grace -. Clock.now ()) tk.tk_deadline
    in
    match t.exec ~mode:eff_mode ~cancel:tk.tk_cancel ~timeout_seconds tk.tk_sql with
    | r -> (Ok r, cf_acc + r.Driver.stats.Driver.compile_failures)
    | exception e when Aeq_util.Site.is_crash e ->
      (* an injected domain kill must stay lethal: let it unwind to
         the crash path of [serve_next] (answer + worker restart), not
         this conversion layer *)
      raise e
    | exception QE.Error (QE.Timeout _ as e) ->
      (* the driver's allowance includes the grace: report the
         client's, which is what it asked for *)
      ( Error
          (match tk.tk_deadline_seconds with Some s -> QE.Timeout s | None -> e),
        cf_acc )
    | exception QE.Error e ->
      let cf_acc = cf_acc + (match e with QE.Compile_failed _ -> 1 | _ -> 0) in
      let backoff_cap = t.cfg.retry_backoff *. (2.0 ** float_of_int attempt) in
      let deadline_allows =
        match tk.tk_deadline with
        | None -> true
        | Some d -> Clock.now () +. backoff_cap < d
      in
      if
        QE.transient e
        && attempt < t.cfg.max_retries
        && deadline_allows
        && not (Cancel.cancelled tk.tk_cancel)
      then begin
        let jitter =
          with_lock t.lock (fun () ->
              Aeq_race.write ~site:"sched.retry" t.counters_loc;
              t.n_retried <- t.n_retried + 1;
              obs_bump "retried" ~help:"Transient-failure retry attempts.";
              Prng.float t.prng backoff_cap)
        in
        with_lock tk.tk_lock (fun () ->
            Aeq_race.write ~site:"sched.retry" tk.tk_loc;
            tk.tk_retries <- tk.tk_retries + 1);
        (* interruptible backoff: a plain sleep here would hold the
           worker hostage through shutdown for a full backoff *)
        ignore (Aeq_util.Waiter.wait t.retry_waiter jitter);
        go (attempt + 1) cf_acc
      end
      else (Error e, cf_acc)
    | exception e ->
      (* the engine's exec contract is Query_error-only; anything else
         is a bug we still turn into a structured response *)
      (Error (QE.Trap (Printexc.to_string e)), cf_acc)
  in
  go 0 0

(* ---- serving on pool workers ----------------------------------------- *)

(* under t.lock: oldest live ticket of the highest non-empty class *)
let pop_live t =
  let rec from_queue q =
    match Queue.take_opt q with
    | None -> None
    | Some tk -> if is_done tk then from_queue q else Some tk
  in
  let rec scan i = if i >= 3 then None else
      match from_queue t.queues.(i) with Some tk -> Some tk | None -> scan (i + 1)
  in
  scan 0

(* under t.lock: answer every still-queued client now, not a hang *)
let reject_queued t reason =
  Aeq_race.write ~site:"sched.reject_queued" t.queues_loc;
  Aeq_race.write ~site:"sched.reject_queued" t.counters_loc;
  Array.iter
    (fun q ->
      Queue.iter
        (fun tk ->
          if not (is_done tk) then begin
            t.n_rejected <- t.n_rejected + 1;
            obs_bump "rejected" ~help:"Queries refused at submission or shutdown.";
            complete tk (Error (QE.Rejected reason))
          end)
        q;
      Queue.clear q)
    t.queues;
  t.queued <- 0

(* The pool job of one admitted ticket, run by pool worker [worker]:
   serve the queue's next ticket — the job binds one only now, so the
   queue, not the pool, decides the serving order. Popping, the
   deadline check and registering as running share one critical
   section, so [drain] and [shutdown] never see a ticket that is
   neither queued nor running. Every critical section is [with_lock]ed
   so no exception — injected crash included — can abandon the
   scheduler mutex. *)
let serve_next t ~worker =
  let claimed =
    with_lock t.lock (fun () ->
        Aeq_race.write ~site:"sched.serve" t.queues_loc;
        Aeq_race.write ~site:"sched.serve" t.counters_loc;
        Aeq_race.write ~site:"sched.serve" t.running_loc;
        if t.queued = 0 then None (* the ticket was shed or rejected *)
        else
          match pop_live t with
          | None ->
            t.queued <- 0;
            (* counter drift guard; unreachable *)
            None
          | Some tk -> (
            t.queued <- t.queued - 1;
            let now = Clock.now () in
            match tk.tk_deadline with
            | Some d when now > d ->
              t.n_expired <- t.n_expired + 1;
              obs_bump "expired" ~help:"Queries whose deadline passed while queued.";
              Some (tk, None)
            | _ ->
              let wait = now -. tk.tk_submitted in
              t.total_wait <- t.total_wait +. wait;
              t.n_waits <- t.n_waits + 1;
              if wait > t.max_wait then t.max_wait <- wait;
              (* overload & breaker decide how much this query may spend *)
              let wants_compile = tk.tk_mode <> Driver.Bytecode in
              let overloaded =
                t.queued > t.cfg.shed_queue_depth
                || (match (t.cfg.shed_resident_bytes, t.arena) with
                   | Some b, Some a -> Aeq_mem.Arena.resident_bytes a > b
                   | _ -> false)
                (* near the scratch cap, compiling (and its scratch spike)
                   is the wrong thing to spend memory on: degrade to
                   bytecode until backpressure drains *)
                || (match t.arena with
                   | Some a -> Aeq_mem.Arena.scratch_under_pressure a
                   | None -> false)
              in
              let compile_allowed =
                (not wants_compile)
                || ((not overloaded) && breaker_allow t tk.tk_id now)
              in
              let eff_mode = if compile_allowed then tk.tk_mode else Driver.Bytecode in
              if eff_mode <> tk.tk_mode then begin
                t.n_degraded <- t.n_degraded + 1;
                obs_bump "degraded" ~help:"Executions forced to bytecode-only."
              end;
              Hashtbl.replace t.running_tks tk.tk_id tk;
              Some (tk, Some eff_mode)))
  in
  match claimed with
  | None -> ()
  | Some (tk, None) ->
    complete tk (Error (QE.Rejected "deadline expired in admission queue"))
  | Some (tk, Some eff_mode) ->
    let outcome, n_cf, crash =
      match
        (* the ticket is now reclaimable: a crash from here on is
           answered below. The dispatch site sits exactly in that
           window so the [Crash] action exercises the reclaim path. *)
        Aeq_util.Site.hit "sched.dispatch";
        with_lock tk.tk_lock (fun () ->
            Aeq_race.write ~site:"sched.dispatch" tk.tk_loc;
            tk.tk_state <- Running;
            tk.tk_started <- Clock.now ();
            tk.tk_degraded <- eff_mode <> tk.tk_mode);
        if Cancel.cancelled tk.tk_cancel then (Error QE.Cancelled, 0)
        else attempt_loop t tk eff_mode
      with
      | outcome, n_cf -> (outcome, n_cf, None)
      | exception exn ->
        (* the worker is dying, its stack already unwound (arena leases
           and mutexes released by the [Fun.protect]s on the way). What
           the unwind cannot do is answer the client, whose [await]
           would hang forever, or release a half-open breaker probe
           the query carried: finish the ticket as [Worker_crashed],
           then let the crash go on to the worker's supervisor *)
        ( Error (QE.Worker_crashed { domain = worker; detail = Printexc.to_string exn }),
          0,
          Some exn )
    in
    with_lock t.lock (fun () ->
        Aeq_race.write ~site:"sched.finish" t.counters_loc;
        Aeq_race.write ~site:"sched.finish" t.running_loc;
        Hashtbl.remove t.running_tks tk.tk_id;
        (* a crashed probe is fed as a failure, so the breaker re-trips
           and re-probes later instead of wedging in Half_open *)
        breaker_feed t tk outcome n_cf;
        if Option.is_some crash then begin
          t.n_crashed_tickets <- t.n_crashed_tickets + 1;
          obs_bump "crashed_tickets"
            ~help:"In-flight tickets completed as Worker_crashed by crash reclaim."
        end;
        match outcome with
        | Ok _ ->
          t.n_completed <- t.n_completed + 1;
          obs_bump "completed" ~help:"Queries finished with rows."
        | Error e ->
          (match e with
          | QE.Timeout _ ->
            t.n_timeouts <- t.n_timeouts + 1;
            obs_bump "timeouts" ~help:"Running queries stopped at deadline+grace."
          | _ -> ());
          t.n_failed <- t.n_failed + 1;
          obs_bump "failed" ~help:"Queries finished with a structured error.");
    complete tk outcome;
    Aeq_util.Waiter.wake t.quiet_waiter;
    Option.iter
      (fun exn ->
        (* the owner's hook releases what this domain held *)
        t.on_domain_crash ~name:worker exn;
        raise exn)
      crash

(* one pool job per admitted ticket *)
let post_serving t =
  Pool.post t.pool
    ~abandon:(fun reason -> with_lock t.lock (fun () -> reject_queued t reason))
    (serve_next t)

(* ---- admission ------------------------------------------------------- *)

(* under t.lock: oldest live ticket of the lowest class strictly below
   [pri], popped out of its queue *)
let shed_victim t pri =
  let candidate_queues =
    match pri with High -> [ 2; 1 ] | Normal -> [ 2 ] | Low -> []
  in
  let rec from_queue q =
    match Queue.take_opt q with
    | None -> None
    | Some tk -> if is_done tk then from_queue q else Some tk
  in
  let rec scan = function
    | [] -> None
    | qi :: rest -> (
      match from_queue t.queues.(qi) with Some tk -> Some tk | None -> scan rest)
  in
  scan candidate_queues

let submit ?(mode = Driver.Adaptive) ?(priority = Normal) ?deadline_seconds ?cancel t
    sql =
  let now = Clock.now () in
  let tk =
    {
      tk_id = Atomic.fetch_and_add t.ids 1;
      tk_sql = sql;
      tk_mode = mode;
      tk_priority = priority;
      tk_deadline_seconds = deadline_seconds;
      tk_deadline = Option.map (fun s -> now +. s) deadline_seconds;
      tk_submitted = now;
      tk_cancel = (match cancel with Some c -> c | None -> Cancel.create ());
      tk_lock = Aeq_race.Lock.create "sched.ticket.lock";
      tk_cond = Condition.create ();
      tk_loc = Aeq_race.locate "sched.ticket";
      tk_state = Queued;
      tk_started = -1.0;
      tk_degraded = false;
      tk_retries = 0;
    }
  in
  let verdict =
    with_lock t.lock (fun () ->
        Aeq_race.write ~site:"sched.submit" t.queues_loc;
        Aeq_race.write ~site:"sched.submit" t.counters_loc;
        if t.stopped then `Rejected (QE.Rejected "scheduler is shut down")
        else if t.draining then begin
          (* drain closes admission first: new work is refused while
             in-flight queries run to completion *)
          t.n_rejected <- t.n_rejected + 1;
          obs_bump "rejected" ~help:"Queries refused at submission or shutdown.";
          `Rejected (QE.Rejected "draining")
        end
        else begin
          let room =
            if t.queued < t.cfg.queue_capacity then `Room None
            else
              match shed_victim t priority with
              | Some v ->
                t.n_shed <- t.n_shed + 1;
                obs_bump "shed" ~help:"Queued queries evicted to admit higher priority.";
                t.queued <- t.queued - 1;
                `Room (Some v)
              | None ->
                (* full, nothing sheddable: fail fast *)
                let depth = t.queued in
                t.n_rejected <- t.n_rejected + 1;
                obs_bump "rejected" ~help:"Queries refused at submission or shutdown.";
                `Rejected
                  (QE.Overloaded
                     { queue_depth = depth; capacity = t.cfg.queue_capacity })
          in
          match room with
          | `Rejected _ as r -> r
          | `Room victim ->
            Queue.push tk t.queues.(queue_index priority);
            t.queued <- t.queued + 1;
            t.n_admitted <- t.n_admitted + 1;
            obs_bump "admitted" ~help:"Queries accepted into the admission queue.";
            if t.queued > t.max_depth then t.max_depth <- t.queued;
            `Admitted victim
        end)
  in
  match verdict with
  | `Rejected e -> QE.raise_error e
  | `Admitted victim ->
    (* posted after [t.lock] is released: the pool may spawn its
       serving worker, and it never runs under a scheduler lock *)
    post_serving t;
    (match victim with
    | Some v ->
      complete v
        (Error
           (QE.Rejected
              (Printf.sprintf "shed under overload (%s priority, queue full)"
                 (priority_name v.tk_priority))))
    | None -> ());
    tk

let run ?mode ?priority ?deadline_seconds ?cancel t sql =
  match submit ?mode ?priority ?deadline_seconds ?cancel t sql with
  | tk -> await tk
  | exception QE.Error e -> Error e

(* ---- lifecycle ------------------------------------------------------- *)

let validate cfg =
  if cfg.queue_capacity < 1 then
    invalid_arg "Scheduler: queue_capacity must be >= 1";
  if cfg.breaker_threshold < 1 then
    invalid_arg "Scheduler: breaker_threshold must be >= 1";
  if cfg.max_retries < 0 then invalid_arg "Scheduler: max_retries must be >= 0"

let create ?(config = default_config) ?arena
    ?(on_domain_crash = fun ~name:_ _ -> ()) ~pool ~exec () =
  validate config;
  let t =
    {
      cfg = config;
      exec;
      arena;
      pool;
      lock = Aeq_race.Lock.create "sched.lock";
      queues_loc = Aeq_race.locate "sched.queues";
      counters_loc = Aeq_race.locate "sched.counters";
      running_loc = Aeq_race.locate "sched.running";
      breaker_loc = Aeq_race.locate "sched.breaker";
      queues = Array.init 3 (fun _ -> Queue.create ());
      ids = Atomic.make 0;
      prng = Prng.create config.seed;
      queued = 0;
      stopped = false;
      draining = false;
      running_tks = Hashtbl.create 8;
      on_domain_crash;
      brk = Closed;
      brk_until = 0.0;
      brk_consecutive = 0;
      probe = None;
      failures = Queue.create ();
      n_admitted = 0;
      n_rejected = 0;
      n_shed = 0;
      n_expired = 0;
      n_retried = 0;
      n_completed = 0;
      n_failed = 0;
      n_degraded = 0;
      n_timeouts = 0;
      n_breaker_trips = 0;
      n_crashed_tickets = 0;
      max_depth = 0;
      total_wait = 0.0;
      n_waits = 0;
      max_wait = 0.0;
      retry_waiter = Aeq_util.Waiter.create ();
      quiet_waiter = Aeq_util.Waiter.create ();
    }
  in
  (* gauges registered unconditionally; rendering is what the
     observability switch gates *)
  Obs.Metrics.gauge_fn "aeq_scheduler_queue_depth"
    ~help:"Queries queued right now." (fun () ->
      with_lock t.lock (fun () ->
          Aeq_race.read ~site:"sched.gauge" t.queues_loc;
          t.queued));
  Obs.Metrics.gauge_fn "aeq_scheduler_in_flight"
    ~help:"Queries currently being served by pool workers." (fun () ->
      with_lock t.lock (fun () ->
          Aeq_race.read ~site:"sched.gauge" t.running_loc;
          Hashtbl.length t.running_tks));
  Obs.Metrics.gauge_fn "aeq_scheduler_breaker_state"
    ~help:"Compile-path circuit breaker: 0 closed, 1 half-open, 2 open."
    (fun () ->
      with_lock t.lock (fun () ->
          Aeq_race.read ~site:"sched.gauge" t.breaker_loc;
          match t.brk with Closed -> 0 | Half_open -> 1 | Open -> 2));
  t

let draining t =
  with_lock t.lock (fun () ->
      Aeq_race.read ~site:"sched.draining" t.queues_loc;
      t.draining)

(* Graceful drain: close admission, then wait (bounded) for the queue
   and the in-flight set to empty, with retry backoffs cut short. Past
   the deadline, still-queued clients are rejected and in-flight
   queries cancelled — every [await] resolves either way. *)
let drain ?(deadline_seconds = 30.0) t =
  with_lock t.lock (fun () ->
      Aeq_race.write ~site:"sched.drain" t.queues_loc;
      t.draining <- true);
  let deadline = Clock.now () +. deadline_seconds in
  let quiesced () =
    with_lock t.lock (fun () ->
        Aeq_race.read ~site:"sched.drain" t.queues_loc;
        Aeq_race.read ~site:"sched.drain" t.running_loc;
        t.queued = 0 && Hashtbl.length t.running_tks = 0)
  in
  let rec poll () =
    if quiesced () then true
    else begin
      let remaining = deadline -. Clock.now () in
      if remaining <= 0.0 then false
      else begin
        (* re-woken each round: one wake reaches only one of the
           workers sleeping on the waiter *)
        Aeq_util.Waiter.wake t.retry_waiter;
        (* serving workers poke [quiet_waiter] as queries finish, so
           this wakes on progress instead of burning a fixed-period
           poll *)
        ignore
          (Aeq_util.Waiter.wait t.quiet_waiter (Float.min 0.01 remaining));
        poll ()
      end
    end
  in
  let clean = poll () in
  if not clean then begin
    let in_flight =
      with_lock t.lock (fun () ->
          reject_queued t "rejected at drain deadline";
          Hashtbl.fold (fun _ tk acc -> tk :: acc) t.running_tks [])
    in
    List.iter (fun tk -> Cancel.cancel tk.tk_cancel) in_flight
  end;
  clean

let stats t =
  (* supervisor counters are monotone over the pool's lifetime — the
     restart budget made observable *)
  let svs = Pool.supervisors t.pool in
  let domain_crashes = List.fold_left (fun acc sv -> acc + Supervisor.crashes sv) 0 svs
  and domain_restarts =
    List.fold_left (fun acc sv -> acc + Supervisor.restarts sv) 0 svs
  in
  with_lock t.lock (fun () ->
      Aeq_race.read ~site:"sched.stats" t.counters_loc;
      Aeq_race.read ~site:"sched.stats" t.queues_loc;
      Aeq_race.read ~site:"sched.stats" t.running_loc;
      Aeq_race.read ~site:"sched.stats" t.breaker_loc;
      {
      admitted = t.n_admitted;
      rejected = t.n_rejected;
      shed = t.n_shed;
      expired = t.n_expired;
      retried = t.n_retried;
      in_flight = Hashtbl.length t.running_tks;
      completed = t.n_completed;
      failed = t.n_failed;
      degraded = t.n_degraded;
      timeouts = t.n_timeouts;
      breaker_trips = t.n_breaker_trips;
      breaker_state = t.brk;
      queue_depth = t.queued;
      max_queue_depth = t.max_depth;
      avg_wait_seconds = (if t.n_waits = 0 then 0.0 else t.total_wait /. float_of_int t.n_waits);
      max_wait_seconds = t.max_wait;
      crashed_tickets = t.n_crashed_tickets;
      domain_crashes;
      domain_restarts;
      })

let reset_stats t =
  with_lock t.lock (fun () ->
      Aeq_race.write ~site:"sched.reset_stats" t.counters_loc;
      t.n_admitted <- 0;
  t.n_rejected <- 0;
  t.n_shed <- 0;
  t.n_expired <- 0;
  t.n_retried <- 0;
  t.n_completed <- 0;
  t.n_failed <- 0;
  t.n_degraded <- 0;
  t.n_timeouts <- 0;
  t.n_breaker_trips <- 0;
  t.n_crashed_tickets <- 0;
  t.max_depth <- t.queued;
      t.total_wait <- 0.0;
      t.n_waits <- 0;
      t.max_wait <- 0.0)

(* Close admission and answer every queued client, then drain without
   a deadline — the in-flight queries finish on their workers — so the
   pool can be shut down right after. *)
let shutdown t =
  let first =
    with_lock t.lock (fun () ->
        Aeq_race.write ~site:"sched.shutdown" t.queues_loc;
        let first = not t.stopped in
        if first then begin
          t.stopped <- true;
          reject_queued t "scheduler is shut down"
        end;
        first)
  in
  if first then begin
    ignore (drain ~deadline_seconds:infinity t);
    Aeq_util.Waiter.dispose t.retry_waiter;
    Aeq_util.Waiter.dispose t.quiet_waiter
  end
