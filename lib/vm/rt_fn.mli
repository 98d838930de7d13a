(** Runtime helper functions callable from generated code.

    The paper's generated code calls into precompiled C++ (hash-table
    insertion, output buffers, ...) on the same stack frame it computes
    in. Here every helper has one calling convention: it receives the
    caller's register file and byte offsets into it, five operand
    offsets and one destination offset, reads its [int64] arguments
    from the operand slots and writes its result to the destination
    slot. Floats pass as IEEE bits and pointers as arena offsets.
    No [int64] crosses the call itself, so a call on the hot path
    boxes nothing.

    Arities are closed ("as we know all exported functions, we can
    identify missing opcodes at compile time"): the translator rejects
    a call whose arity has no opcode, and the bytecode verifier checks
    each call site against the helper's declared {!arity}. *)

type fn = Bytes.t -> int -> int -> int -> int -> int -> int -> unit
(** [fn regs dst a0 a1 a2 a3 a4]: operand [i] is the 8-byte slot at
    offset [ai] of [regs]; offsets past the helper's arity are
    meaningless and must not be read. [dst] is the result slot, or
    negative for a call whose result is discarded. *)

type t = { arity : int; fn : fn }

val arity : t -> int

val arg : Bytes.t -> int -> int64
(** [arg regs off] reads an operand slot. *)

val ret : Bytes.t -> int -> int64 -> unit
(** [ret regs dst v] writes the result slot; no-op when [dst < 0]. *)

type resolver = string -> t option
(** Symbol table handed to the translator / compiler. *)
