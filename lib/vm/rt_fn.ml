type fn = Bytes.t -> int -> int -> int -> int -> int -> int -> unit

type t = { arity : int; fn : fn }

let arity t = t.arity

let[@inline] arg regs off = Bytes.get_int64_ne regs off

let[@inline] ret regs dst v = if dst >= 0 then Bytes.set_int64_ne regs dst v

type resolver = string -> t option
