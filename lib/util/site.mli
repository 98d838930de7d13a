(** Probe sites: named points in the engine where a test can inject a
    fault or the deterministic simulator can take the run token away.

    Each site is declared once, in {!catalog}, with the roles it plays:
    - a {e fault} site can be armed (programmatically with {!activate},
      or through [AEQ_FAILPOINTS] / [--failpoints], e.g.
      ["compile.opt=fail,driver.morsel=fail@5"]) to fail, stall or
      crash on a chosen hit — the recovery paths of the fault-tolerance
      layer are only trustworthy if they run under test;
    - a {e yield} site hands control to the simulation handler
      ({!install}), which suspends the calling task and passes the run
      token to whichever task the seeded scheduler ([Aeq_sim]) picks
      next.

    Instrumented code calls {!hit} with a literal name, once per site.
    With nothing armed and no handler installed — production — that
    costs one atomic load and an untaken branch. Otherwise the fault
    half runs first, then the yield half: a fault-only site never
    yields, and a yield-only site cannot be armed. A name outside the
    catalog (a test's own probe) plays both roles: it yields under
    simulation, and can be armed once {!register_site} has added it. DESIGN.md ("Probe sites")
    says where each catalog site sits.

    Instrumentation rule: never call {!hit} while a lock is held — the
    simulator serializes tasks, and suspending a lock holder deadlocks
    any task that blocks on that lock for real. *)

exception Injected of string
(** Raised by a triggered [Fail] site, carrying the site name. *)

exception Injected_crash of string
(** Raised by a triggered [Crash] site. Unlike {!Injected}, this is
    {e not} part of the structured-error contract: every layer that
    folds exceptions into [Query_error] lets it pass, so it unwinds
    all the way out of the hosting domain — simulating a bug that
    kills a pool worker. Only a supervisor barrier
    ([Aeq_exec.Supervisor]) contains it. *)

val is_crash : exn -> bool
(** Is this {!Injected_crash}, possibly wrapped in (nested)
    [Fun.Finally_raised] by finalisers along the unwind? Conversion
    layers use this to decide "let it escape". *)

type role = Fault | Yield | Both

val catalog : (string * role) list
(** The sites compiled into the engine, armable ones first. The static
    lint cross-checks every literal {!hit} call in lib/ against exactly
    this list, both directions. *)

val hit : string -> unit
(** Evaluate a site: its fault half if anything is armed, then its
    yield half if a simulation handler is installed.
    @raise Injected if the site is armed with [Fail] (or [Prob_fail])
    and this hit triggers.
    @raise Injected_crash if it is armed with [Crash] and triggers. *)

(** {1 Faults} *)

type action =
  | Fail  (** raise {!Injected} *)
  | Delay of float  (** sleep this many seconds (slow compile, slow morsel) *)
  | Prob_fail of float
      (** raise {!Injected} with this probability on each hit — the
          chaos-mode action, reproducible under {!set_seed} *)
  | Crash
      (** raise {!Injected_crash} — kill the hosting domain (spec
          syntax [site=crash]) *)

val activate : ?on_hit:int -> ?persistent:bool -> string -> action -> unit
(** Arm a site. With [persistent] (the default) the site triggers on
    every hit from the [on_hit]-th (default 1) onward; with
    [~persistent:false] it triggers exactly once, on the [on_hit]-th
    hit. For [Prob_fail] the hit-count gate applies first, then the
    coin is tossed. Re-activating a site replaces its previous arming
    and resets its counters.
    @raise Invalid_argument if the site is not a fault site (see
    {!valid_sites}, {!register_site}) or a [Prob_fail] probability is
    outside [\[0,1\]]. *)

val valid_sites : unit -> string list
(** The armable sites: the catalog's fault sites, in catalog order,
    then the test-registered extras. *)

val register_site : string -> unit
(** Make a name outside the catalog armable — for tests that exercise
    the registry itself rather than an engine site. *)

val set_seed : int64 -> unit
(** Re-seed the PRNG shared by every [Prob_fail] site (splitmix64).
    Chaos tests call this first so their fault schedule is
    reproducible. *)

val deactivate : string -> unit

val clear : unit -> unit
(** Disarm everything (tests should call this in cleanup). *)

val armed : unit -> bool
(** Any site armed? *)

val hits : string -> int
(** How many times the armed site was evaluated (0 if not armed;
    counters reset on re-activation). *)

val fired : string -> int
(** How many times the armed site actually triggered. *)

val set_from_string : string -> unit
(** Parse and activate a spec like
    ["compile.opt=fail,driver.morsel=delay:0.01@2,arena.alloc=p:0.05"].
    Entries are [site=fail], [site=crash], [site=delay:SECONDS] or
    [site=p:PROBABILITY], joined by [,] or [;] and optionally suffixed
    [@N] to make the site one-shot on its Nth hit.
    @raise Invalid_argument on a malformed spec. *)

val env_var : string
(** ["AEQ_FAILPOINTS"] — parsed once at module initialisation
    (malformed values warn on stderr instead of raising). *)

(** {1 Simulation} *)

val simulating : unit -> bool
(** Is a simulation handler installed? Instrumented blocking loops
    (single-flight wait, arena backpressure, supervisor backoff) use
    this to spin through {!hit} instead of blocking on something the
    simulator cannot see. *)

val install : (string -> unit) -> unit
(** Install the simulation handler; yield sites call it with their
    name.
    @raise Invalid_argument if one is already installed. *)

val uninstall : unit -> unit
(** Remove the handler; yield sites revert to no-ops. *)

val with_handler : (string -> unit) -> (unit -> 'a) -> 'a
(** [with_handler f body] installs [f] around [body], uninstalling on
    all exits. *)
