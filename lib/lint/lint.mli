(** Static concurrency-discipline lint over OCaml source.

    A Parsetree walk (compiler-libs) enforcing the locking discipline
    that the dynamic race detector ([Aeq_race]) checks at runtime —
    the two analyses share one declaration registry and one probe-site
    catalog, and CI runs both.

    Per-file rules (selectable via [?rules]):

    - ["raw-mutex"]: no [Mutex.lock]/[unlock]/[try_lock]/[create] and
      no [Condition.wait] outside the detector itself. Locks are taken
      through [Aeq_race.Lock] so every acquire/release feeds the
      lockset and vector-clock state; a raw mutex is invisible to the
      detector and a hole in the analysis.
    - ["site-in-lock"]: no [Site.hit] lexically inside an
      [Aeq_race.Lock.with_] / [with_lock] / [locked] critical section,
      whatever the site's roles. Under simulation a yielded task
      suspends; suspending while holding a lock deadlocks every peer
      behind it.
    - ["sleep-in-exec"]: no [Unix.sleepf]/[Unix.sleep] — supervised
      paths must block on [Aeq_util.Waiter] so shutdown and crash
      reclaim can interrupt the wait.
    - ["site-literal"]: every [Site.hit] call site must pass a string
      literal, so the site catalog cross-check can see it.
    - ["declare-literal"]: every [Aeq_race.declare] must name its
      location with a string literal, for the same reason.
    - ["domain-spawn"]: no [Domain.spawn], [Aeq_race.spawn] or
      [Supervisor.spawn] — the engine has one domain budget, its
      [Pool] workers. The pool and the supervisor it spawns through,
      the race detector's own spawn wrapper and the simulator waive
      it at their call sites.

    A finding can be waived for one subtree with
    [(expr [@lint.allow "rule"])]. Whole-tree cross-checks (site
    catalog coverage, registry/DESIGN.md coverage) run in the
    [aeq_lint] executable over the aggregated per-file scans. *)

type finding = {
  f_file : string;
  f_line : int;
  f_col : int;
  f_rule : string;
  f_msg : string;
}

type scan = {
  sc_findings : finding list; (* source order *)
  sc_hit_sites : (string * int) list;
      (* literal [Site.hit] sites with their lines *)
  sc_declares : (string * int) list;
      (* literal [Aeq_race.declare] location names with their lines *)
}

val all_rules : string list

val finding_to_string : finding -> string
(** [file:line:col: [rule] message] — one line, compiler style. *)

val lint_source : ?rules:string list -> filename:string -> string -> scan
(** Parse [source] and apply [rules] (default: all). A syntax error
    yields a single ["parse"] finding rather than an exception: the
    lint must not crash on a tree it cannot read. *)

val catalog_problems :
  catalog:string list -> hits:(string * string * int) list -> string list
(** Cross-check the literal [Site.hit] calls of a tree, as
    [(site, file, line)], against the site catalog in both directions:
    one line per call naming a site outside the catalog, and one per
    catalog entry no call hits (a dead entry — a chaos run arming it,
    or a simulation relying on it, would test nothing). *)

val design_table_names : string -> string list
(** Extract the location names (first backticked column cell of each
    table row) from the "Locking discipline" section of DESIGN.md
    content. Used by the CLI for the registry-coverage cross-check. *)
