(** An interruptible timed wait (self-pipe + [select]).

    The stdlib [Condition] cannot wait with a timeout, so timed sleeps
    (supervisor restart backoff, scheduler retry backoff) either
    oversleep shutdown by a full period or busy-poll. A [Waiter.t]
    gives the third option: sleep up to the period, but return
    immediately when another domain calls {!wake}. [wake] may be
    called from anywhere, any number of times (wakes coalesce). When
    several domains sleep on one waiter, a wake cuts at least one of
    them short; wake again to reach the rest. *)

type t

val create : unit -> t

val wait : t -> float -> bool
(** [wait t seconds] blocks up to [seconds]. Returns [true] if the
    sleep was cut short (a {!wake}, a signal, or disposal), [false] on
    a full timeout. Non-positive durations return [false] at once.
    Pending wakes are consumed, so back-to-back waits sleep again. *)

val wake : t -> unit
(** Interrupt the current (or next) {!wait}. Cheap, non-blocking,
    safe from any domain and from signal handlers' deferred context. *)

val dispose : t -> unit
(** Close the pipe. Call only after the sleeping domain has exited
    (a concurrent {!wait} observes disposal as a wake at worst).
    Idempotent. *)
