(** The structured error taxonomy of query execution.

    Everything that can go wrong while a query runs surfaces as one
    [Error] carrying a {!t}; the engine guarantees cleanup (arena
    scratch released, prepared statement reusable, worker pool
    healthy) before the exception reaches the caller, so the next
    query runs unaffected. *)

type t =
  | Trap of string
      (** a runtime trap from query code: division by zero, overflow,
          abort *)
  | Injected of string
      (** a fault armed through [Aeq_util.Site] fired at the named
          site — the chaos-testing stand-in for a transient
          infrastructure failure. The wire protocol encodes it as the
          trap ["injected fault at <site>"]. *)
  | Compile_failed of Aeq_backend.Cost_model.mode * string
      (** a statically-requested compilation failed and degradation
          was disabled ([`Fail]); the detail string carries the
          underlying failure *)
  | Timeout of float
      (** the [~timeout_seconds] deadline passed (payload: the
          allowance) *)
  | Cancelled  (** the query's {!Cancel.t} token was cancelled *)
  | Memory_budget_exceeded of { budget_bytes : int; used_bytes : int }
      (** per-query arena scratch exceeded [~memory_budget_bytes] *)
  | Overloaded of { queue_depth : int; capacity : int }
      (** the scheduler's bounded admission queue was full and nothing
          lower-priority could be shed; submitted work is rejected
          immediately instead of queueing unboundedly *)
  | Rejected of string
      (** the scheduler refused or abandoned the query before it
          produced a result: shed under overload, deadline expired
          while still queued, the scheduler was draining, or it was
          shut down *)
  | Worker_crashed of { domain : string; detail : string }
      (** the pool worker holding this query (serving it, or helping
          with its morsels) died on an unstructured exception; the supervisor
          reclaimed the query's state and restarted the domain.
          [domain] names the casualty, [detail] carries the printed
          exception. Classified {!transient}: the crash says nothing
          about the query, so retrying it is sound. *)

exception Error of t

val to_string : t -> string

val raise_error : t -> 'a

val transient : t -> bool
(** Is the failure worth retrying? [Injected] faults (the
    chaos-testing stand-in for transient infrastructure failures) and
    [Worker_crashed] (the domain died, not the query) are transient;
    deterministic query errors — real traps (whatever their message),
    compile failures, timeouts, cancellations, budget breaches,
    scheduler rejections — are not. The scheduler retries transient failures
    with backoff, bounded by the query's deadline. *)
