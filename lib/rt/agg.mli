(** Grouped aggregation tables.

    Each worker thread owns a private group table ("thread-local
    aggregation"), so generated code updates accumulators with plain
    loads and stores — no atomics in the per-tuple path. After the
    pipeline barrier the driver merges the thread tables and
    materialises the groups into arena columns, which the next
    pipeline scans like a table.

    Everything lives in the arena. Accumulator rows are allocated per
    group; each thread's group map (composite key → row pointer) is an
    open-addressing table of [row; k1; k2] slots with linear probing
    (load factor at most 3/4),
    so a probe reads unboxed keys with plain loads and allocates
    nothing on the OCaml heap. *)

type acc_kind = Sum | Count | Min | Max
(** AVG is compiled as Sum + Count with a final division in the
    aggregate-scan pipeline. *)

type t

val create :
  Aeq_mem.Arena.t -> n_threads:int -> key_arity:int -> accs:acc_kind list -> t
(** [key_arity] is 0, 1 or 2 (0 = global aggregate: a single group).
    Below arity 2 the table does not store [k2] and groups by [k1]
    alone; generated code passes [0] for absent keys. *)

val get_group :
  t -> tid:int -> allocator:Aeq_mem.Arena.allocator -> k1:int64 -> k2:int64 -> Aeq_mem.Arena.ptr
(** Accumulator row for the group, created (with per-kind initial
    values) on first touch. Accumulator [i] is at byte offset [8*i].
    The lookup is inlined into callers built with cross-module
    inlining, so an existing group costs no heap allocation; only a
    new group (or a table growth) calls out. *)

val merge : t -> allocator:Aeq_mem.Arena.allocator -> unit
(** Fold every thread's groups into thread 0 (per-kind combination):
    one pass over each thread's slots. [allocator] grows thread 0's
    table. Call after the pipeline barrier, single-threaded. *)

val materialize : t -> allocator:Aeq_mem.Arena.allocator -> int * Aeq_mem.Arena.ptr array
(** After [merge]: [(n_groups, columns)] in slot order, where columns are
    [key1; key2; acc0; acc1; ...] (keys only up to [key_arity]),
    each a dense arena column of [n_groups] i64 values. *)

val n_groups : t -> int
(** Total groups in thread 0 (valid after [merge]). *)
