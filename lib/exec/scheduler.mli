(** Concurrent query serving: admission control, overload shedding,
    and a compile-path circuit breaker in front of the driver.

    The execution core underneath (driver + multi-tenant worker pool +
    per-query arena leases) runs queries concurrently. Admitted
    queries are served on the engine's {!Pool} workers — the scheduler
    spawns no domain of its own — so up to [Pool.n_threads] admitted
    queries are in flight at once. What a server needs on top — and
    what this module provides — is a defined behavior when clients
    outnumber capacity:

    - a {b bounded admission queue} with three priority classes and
      per-query deadlines. A full queue rejects immediately with
      {!Query_error.Overloaded} (fail fast, never queue unboundedly),
      shedding an already-queued lower-priority query first if that
      makes room for a higher-priority newcomer;
    - {b load shedding / graceful degradation}: when queue depth or
      the arena's resident high-water mark crosses its threshold,
      newly dispatched queries are forced to bytecode-only mode — no
      compilation spend under overload;
    - a {b compile-path circuit breaker}: per-statement blacklisting
      (PR 2) stops retry storms within one prepared statement, but
      every new statement still re-pays a broken compile path. The
      breaker aggregates compile failures engine-wide in a sliding
      window; past the threshold it trips to bytecode-only for
      everyone, then recovers through half-open probing — one query is
      allowed to compile; success closes the breaker, failure re-opens
      it with exponentially growing, fully-jittered cooldown;
    - {b retry with backoff} for failures classified transient by
      {!Query_error.transient} (injected faults — the chaos stand-in
      for infrastructure hiccups — and crashed workers), bounded by
      the query's deadline and [max_retries];
    - {b deadlines}: a query runs with the rest of its deadline plus
      [deadline_grace] as the driver's timeout, which the driver
      checks at every morsel boundary (surfaced as [Timeout] with the
      client's allowance); a query whose deadline passed while it was
      still queued is answered [Rejected] when a worker next
      dispatches it.

    Clients call {!submit} (asynchronous; returns a {!ticket}) or
    {!run} (submit + await) from any number of domains. Each admitted
    ticket becomes one {!Pool.post}ed job; the worker that takes it
    serves the queue's next ticket — highest priority first, FIFO
    within a class. On a 1-thread pool serving is fully serialized
    (the deterministic mode the scheduler tests rely on). A worker
    crash completes the ticket it was serving with [Worker_crashed];
    when every worker has exhausted its restart budget, queued
    tickets are rejected. *)

type priority = Low | Normal | High

val priority_name : priority -> string

type config = {
  queue_capacity : int;  (** admission queue bound (≥ 1) *)
  shed_queue_depth : int;
      (** queue depth beyond which dispatched queries are forced to
          bytecode-only *)
  shed_resident_bytes : int option;
      (** arena high-water mark (resident bytes) beyond which
          dispatched queries are forced to bytecode-only *)
  deadline_grace : float;
      (** seconds past its deadline a running query is granted before
          the driver stops it with [Timeout] *)
  breaker_threshold : int;
      (** compile failures within [breaker_window] that trip the
          breaker *)
  breaker_window : float;  (** sliding-window length, seconds *)
  breaker_cooldown : float;
      (** base open-state cooldown before the first half-open probe;
          doubles per consecutive re-open (full jitter, see module
          doc) *)
  breaker_cooldown_max : float;  (** cooldown growth cap, seconds *)
  max_retries : int;  (** retry budget per query for transient failures *)
  retry_backoff : float;
      (** base retry backoff, seconds; doubles per attempt, full
          jitter, bounded by the query's deadline *)
  seed : int64;  (** PRNG seed for backoff jitter *)
}

val default_config : config

type outcome = (Driver.result, Query_error.t) result

type ticket
(** A submitted query. Await it, cancel it, or inspect it. *)

type t

val create :
  ?config:config ->
  ?arena:Aeq_mem.Arena.t ->
  ?on_domain_crash:(name:string -> exn -> unit) ->
  pool:Pool.t ->
  exec:
    (mode:Driver.mode ->
    cancel:Cancel.t ->
    timeout_seconds:float option ->
    string ->
    Driver.result) ->
  unit ->
  t
(** Start a scheduler serving on [pool]'s workers; it spawns no domain
    itself (the pool spawns its last worker with the first admitted
    query). [exec] runs one query to completion, stopping with
    [Timeout] once [timeout_seconds] have passed, and is called from
    pool workers — up to [Pool.n_threads] calls concurrently, so it
    must be thread-safe (the engine's [query] is); it must raise
    {!Query_error.Error} on failure, and let non-structured exceptions
    escape (they are treated as worker crashes). [arena], when given,
    feeds the [shed_resident_bytes] overload gauge. [on_domain_crash]
    runs in a worker that crashed while serving, after the scheduler
    answered the ticket — the engine hooks its plan-cache single-flight
    cleanup here. *)

val submit :
  ?mode:Driver.mode ->
  ?priority:priority ->
  ?deadline_seconds:float ->
  ?cancel:Cancel.t ->
  t ->
  string ->
  ticket
(** Enqueue a query. Returns immediately.

    [deadline_seconds] is end-to-end (queue wait + execution +
    retries): expiring in the queue yields [Rejected], exceeding it
    by [deadline_grace] while running yields [Timeout]. [cancel] lets the caller
    abandon the query later ({!cancel} does the same).

    @raise Query_error.Error [(Overloaded _)] when the queue is full
    and no strictly-lower-priority query can be shed — the fail-fast
    admission contract.
    @raise Query_error.Error [(Rejected _)] when the scheduler is shut
    down. *)

val await : ticket -> outcome
(** Block until the query completes (any domain may await). *)

val poll : ticket -> outcome option
(** Non-blocking {!await}: [Some outcome] once the query completed,
    [None] while it is still queued or running. The network session
    loop uses this to multiplex ticket completion with socket reads
    (an out-of-band [Cancel] frame must be seen while the query it
    cancels is in flight). *)

val run :
  ?mode:Driver.mode ->
  ?priority:priority ->
  ?deadline_seconds:float ->
  ?cancel:Cancel.t ->
  t ->
  string ->
  outcome
(** [submit] + [await], with admission errors ([Overloaded] /
    [Rejected] raised by {!submit}) folded into the returned outcome —
    the one-call closed-loop client API. *)

val cancel : ticket -> unit
(** Cancel the query (queued: completes [Cancelled] without running;
    running: stops at the next morsel boundary). *)

val wait_seconds : ticket -> float
(** Time the ticket spent queued before execution started ([-1.] if it
    never started). *)

val was_degraded : ticket -> bool
(** The scheduler forced this query to bytecode-only (overload or open
    breaker). *)

val retries : ticket -> int
(** Transient-failure retries this query consumed. *)

type breaker_state = Closed | Open | Half_open

val breaker_state_name : breaker_state -> string

type stats = {
  admitted : int;  (** accepted into the queue *)
  rejected : int;  (** refused at submission ([Overloaded]) or at shutdown *)
  shed : int;  (** evicted from the queue to admit higher priority *)
  expired : int;  (** deadline passed while still queued *)
  retried : int;  (** transient-failure retry attempts *)
  in_flight : int;  (** gauge: queries being served right now *)
  completed : int;  (** finished with rows *)
  failed : int;  (** finished with a structured error *)
  degraded : int;  (** executions forced to bytecode-only *)
  timeouts : int;  (** running queries stopped past deadline+grace *)
  breaker_trips : int;  (** transitions to [Open] *)
  breaker_state : breaker_state;
  queue_depth : int;  (** gauge: queries queued right now *)
  max_queue_depth : int;  (** high-water mark of [queue_depth] *)
  avg_wait_seconds : float;  (** mean queue wait of dispatched queries *)
  max_wait_seconds : float;
  crashed_tickets : int;
      (** in-flight tickets completed as [Worker_crashed] by
          supervisor reclaim after the worker serving them died *)
  domain_crashes : int;
      (** crashes caught by the pool's worker supervisors (monotone
          over the pool's lifetime; not zeroed by {!reset_stats}) *)
  domain_restarts : int;
      (** supervised restarts performed (monotone, like
          [domain_crashes]) — the restart budget made observable *)
}

val zero_stats : stats
(** All counters zero, breaker [Closed] — what an engine reports
    before its scheduler exists. *)

val stats : t -> stats

val reset_stats : t -> unit
(** Zero the accumulated counters ([admitted] … [breaker_trips], wait
    statistics, [max_queue_depth] — which restarts from the current
    depth). Live state — breaker state/cooldown, the queue itself — is
    untouched. Used by [Engine.reset_stats] for windowed scraping. *)

val drain : ?deadline_seconds:float -> t -> bool
(** Graceful drain: stop admission (later {!submit}s raise
    [Rejected "draining"]) and wait up to [deadline_seconds] (default
    30) for the queue and the in-flight set to empty, cutting retry
    backoffs short. Past the
    deadline, still-queued clients complete [Rejected] and in-flight
    queries are cancelled, so no [await] is left hanging. Returns
    [true] if quiescence was reached cleanly, [false] if the deadline
    forced it. Does not shut the scheduler down — callers (see
    [Engine.drain]) typically follow with {!shutdown}. *)

val draining : t -> bool

val shutdown : t -> unit
(** Stop serving: every still-queued query completes with [Rejected],
    retry backoffs are cut short, and the call returns once the
    in-flight queries have finished on their workers — the pool can be
    shut down next. Idempotent. Later {!submit}s raise [Rejected]. *)
