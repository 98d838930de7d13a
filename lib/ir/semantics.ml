let[@inline] sext8 v = Int64.shift_right (Int64.shift_left v 56) 56

let[@inline] sext16 v = Int64.shift_right (Int64.shift_left v 48) 48

let[@inline] sext32 v = Int64.shift_right (Int64.shift_left v 32) 32

let[@inline] canon ~width v =
  match width with
  | 8 -> sext8 v
  | 16 -> sext16 v
  | 32 -> sext32 v
  | 64 -> v
  | _ -> invalid_arg "Semantics.canon"

(* 64-bit forms. Each traps in a unit-typed [if] and then computes its
   result unconditionally, so once inlined no operand or result is
   boxed: a value-returning trap branch would force the result back
   into a box. The width-generic operations below defer to these. *)

let[@inline] add_ovf64 a b =
  let r = Int64.add a b in
  (* same-sign operands with a differently-signed result *)
  Int64.logand (Int64.logand (Int64.logxor a r) (Int64.logxor b r)) Int64.min_int <> 0L

let[@inline] sub_ovf64 a b =
  let r = Int64.sub a b in
  Int64.logand (Int64.logand (Int64.logxor a b) (Int64.logxor a r)) Int64.min_int <> 0L

let mul_ovf64_wide a b =
  if Int64.equal a 0L then false
  else begin
    let r = Int64.mul a b in
    (not (Int64.equal (Int64.div r a) b))
    || (Int64.equal a (-1L) && Int64.equal b Int64.min_int)
    || (Int64.equal b (-1L) && Int64.equal a Int64.min_int)
  end

(* [v] in [-2^31, 2^31): two such factors cannot overflow, which settles
   the common case without the division in [mul_ovf64_wide] *)
let[@inline] fits32 v = Int64.equal (Int64.shift_right (Int64.add v 0x80000000L) 32) 0L

let[@inline] mul_ovf64 a b = not (fits32 a && fits32 b) && mul_ovf64_wide a b

let[@inline] add_chk64 a b =
  if add_ovf64 a b then Trap.overflow ();
  Int64.add a b

let[@inline] sub_chk64 a b =
  if sub_ovf64 a b then Trap.overflow ();
  Int64.sub a b

let[@inline] mul_chk64 a b =
  if mul_ovf64 a b then Trap.overflow ();
  Int64.mul a b

let[@inline] div64 a b =
  if Int64.equal b 0L then Trap.division_by_zero ();
  Int64.div a b

let[@inline] rem64 a b =
  if Int64.equal b 0L then Trap.division_by_zero ();
  Int64.rem a b

let[@inline] add ~width a b = canon ~width (Int64.add a b)

let[@inline] sub ~width a b = canon ~width (Int64.sub a b)

let[@inline] mul ~width a b = canon ~width (Int64.mul a b)

let[@inline] div ~width a b = canon ~width (div64 a b)

let[@inline] rem ~width a b = canon ~width (rem64 a b)

let[@inline] shl ~width a b = canon ~width (Int64.shift_left a (Int64.to_int b land 63))

let[@inline] lshr ~width a b =
  let masked =
    match width with
    | 8 -> Int64.logand a 0xFFL
    | 16 -> Int64.logand a 0xFFFFL
    | 32 -> Int64.logand a 0xFFFFFFFFL
    | _ -> a
  in
  canon ~width (Int64.shift_right_logical masked (Int64.to_int b land 63))

let[@inline] fits ~width v = Int64.equal (canon ~width v) v

let[@inline] add_ovf ~width a b =
  if width = 64 then add_ovf64 a b else not (fits ~width (Int64.add a b))

let[@inline] sub_ovf ~width a b =
  if width = 64 then sub_ovf64 a b else not (fits ~width (Int64.sub a b))

let[@inline] mul_ovf ~width a b =
  if width = 64 then mul_ovf64 a b else not (fits ~width (Int64.mul a b))

let[@inline] add_chk ~width a b =
  if add_ovf ~width a b then Trap.overflow ();
  Int64.add a b

let[@inline] sub_chk ~width a b =
  if sub_ovf ~width a b then Trap.overflow ();
  Int64.sub a b

let[@inline] mul_chk ~width a b =
  if mul_ovf ~width a b then Trap.overflow ();
  Int64.mul a b

let[@inline] ucmp ~width a b =
  match width with
  | 64 -> Int64.unsigned_compare a b
  | 8 -> Int64.compare (Int64.logand a 0xFFL) (Int64.logand b 0xFFL)
  | 16 -> Int64.compare (Int64.logand a 0xFFFFL) (Int64.logand b 0xFFFFL)
  | 32 -> Int64.compare (Int64.logand a 0xFFFFFFFFL) (Int64.logand b 0xFFFFFFFFL)
  | _ -> invalid_arg "Semantics.ucmp"

let[@inline] bool_i64 b = if b then 1L else 0L

let fp_of_bits = Int64.float_of_bits

let bits_of_fp = Int64.bits_of_float
