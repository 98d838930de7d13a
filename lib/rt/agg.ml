module A = Aeq_mem.Arena

type acc_kind = Sum | Count | Min | Max

(* A thread's group map: open addressing with linear probing over a
   power-of-two array of slots [row][k1][k2] in the arena ([k2] only
   at key arity 2). A null row marks an empty slot (accumulator rows
   are never null), so every key, (0, 0) included, is storable. The
   slot array is one allocation, hence contiguous in one chunk: the
   table caches that chunk's buffer and the array's offset in it, and
   probes read the slots with plain byte loads. *)
type table = {
  mutable buf : Bytes.t;
  mutable base : int; (* byte offset of slot 0 in [buf] *)
  mutable mask : int; (* capacity - 1; -1 until the first group *)
  mutable count : int;
}

type t = {
  arena : A.t;
  key_arity : int;
  accs : acc_kind array;
  row_bytes : int;
  slot_bytes : int; (* 24 at key arity 2, else 16 *)
  tables : table array; (* per thread *)
}

let initial_capacity = 16

let empty_table () = { buf = Bytes.empty; base = 0; mask = -1; count = 0 }

let init_value = function
  | Sum | Count -> 0L
  | Min -> Int64.max_int
  | Max -> Int64.min_int

let create arena ~n_threads ~key_arity ~accs =
  let accs = Array.of_list accs in
  {
    arena;
    key_arity;
    accs;
    row_bytes = 8 * Array.length accs;
    slot_bytes = (if key_arity >= 2 then 24 else 16);
    tables = Array.init (Stdlib.max 1 n_threads) (fun _ -> empty_table ());
  }

(* splitmix-style finalizer over both key words *)
let[@inline] hash k1 k2 =
  let h = Int64.logxor k1 (Int64.mul k2 0x9E3779B97F4A7C15L) in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 33)) 0xFF51AFD7ED558CCDL in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 33)) 0xC4CEB9FE1A85EC53L in
  Int64.to_int (Int64.logxor h (Int64.shift_right_logical h 33))

let[@inline] slot_row t tbl i =
  Int64.to_int (Bytes.get_int64_ne tbl.buf (tbl.base + (t.slot_bytes * i)))

let[@inline] slot_k1 t tbl i = Bytes.get_int64_ne tbl.buf (tbl.base + (t.slot_bytes * i) + 8)

let[@inline] slot_k2 t tbl i =
  if t.slot_bytes = 24 then Bytes.get_int64_ne tbl.buf (tbl.base + (t.slot_bytes * i) + 16) else 0L

(* Slot of the key: where it is stored, or the empty slot that ends
   its probe sequence. *)
let[@inline] find_slot t tbl ~k1 ~k2 =
  let buf = tbl.buf and base = tbl.base and mask = tbl.mask and slot_bytes = t.slot_bytes in
  let k2 = if slot_bytes = 24 then k2 else 0L in
  let i = ref (hash k1 k2 land mask) in
  let probing = ref true in
  while !probing do
    let o = base + (slot_bytes * !i) in
    if
      Int64.equal (Bytes.get_int64_ne buf o) 0L
      || Int64.equal (Bytes.get_int64_ne buf (o + 8)) k1
         && (slot_bytes = 16 || Int64.equal (Bytes.get_int64_ne buf (o + 16)) k2)
    then probing := false
    else i := (!i + 1) land mask
  done;
  !i

let[@inline] set_slot t tbl i ~row ~k1 ~k2 =
  let o = tbl.base + (t.slot_bytes * i) in
  Bytes.set_int64_ne tbl.buf o (Int64.of_int row);
  Bytes.set_int64_ne tbl.buf (o + 8) k1;
  if t.slot_bytes = 24 then Bytes.set_int64_ne tbl.buf (o + 16) k2

(* Double the slot array (or make the first one) and rehash into it.
   The old array stays in the arena until the query's lease is
   released. *)
let grow t tbl ~allocator =
  let old = { tbl with count = tbl.count } in
  let capacity = Stdlib.max initial_capacity (2 * (old.mask + 1)) in
  let buf, base = A.chunk_of t.arena (A.alloc allocator (t.slot_bytes * capacity)) in
  tbl.buf <- buf;
  tbl.base <- base;
  tbl.mask <- capacity - 1;
  for i = 0 to old.mask do
    let row = slot_row t old i in
    if row <> A.null then begin
      let k1 = slot_k1 t old i and k2 = slot_k2 t old i in
      set_slot t tbl (find_slot t tbl ~k1 ~k2) ~row ~k1 ~k2
    end
  done

(* Fill the empty slot [i] that [find_slot] returned, then grow if the
   load factor passed 3/4. *)
let[@inline] store t tbl ~allocator i ~row ~k1 ~k2 =
  set_slot t tbl i ~row ~k1 ~k2;
  tbl.count <- tbl.count + 1;
  if 4 * tbl.count > 3 * (tbl.mask + 1) then grow t tbl ~allocator

let new_row t ~allocator =
  let row = A.alloc allocator t.row_bytes in
  for i = 0 to Array.length t.accs - 1 do
    A.set_i64 t.arena (row + (8 * i)) (init_value t.accs.(i))
  done;
  row

(* Inlined into the runtime helper, so the keys stay unboxed: no
   [int64] leaves this function, for a new group either. *)
let[@inline] get_group t ~tid ~allocator ~k1 ~k2 =
  let tbl = t.tables.(tid) in
  if tbl.mask < 0 then grow t tbl ~allocator;
  let i = find_slot t tbl ~k1 ~k2 in
  let row = slot_row t tbl i in
  if row <> A.null then row
  else begin
    let row = new_row t ~allocator in
    store t tbl ~allocator i ~row ~k1 ~k2;
    row
  end

let combine t ~into ~from =
  for i = 0 to Array.length t.accs - 1 do
    let o = 8 * i in
    let a = A.get_i64 t.arena (into + o) and b = A.get_i64 t.arena (from + o) in
    let r =
      match t.accs.(i) with
      | Sum | Count -> Int64.add a b
      | Min -> if Int64.compare b a < 0 then b else a
      | Max -> if Int64.compare b a > 0 then b else a
    in
    A.set_i64 t.arena (into + o) r
  done

let merge t ~allocator =
  let main = t.tables.(0) in
  for tid = 1 to Array.length t.tables - 1 do
    let src = t.tables.(tid) in
    for i = 0 to src.mask do
      let from = slot_row t src i in
      if from <> A.null then begin
        let k1 = slot_k1 t src i and k2 = slot_k2 t src i in
        if main.mask < 0 then grow t main ~allocator;
        let j = find_slot t main ~k1 ~k2 in
        let into = slot_row t main j in
        if into <> A.null then combine t ~into ~from else store t main ~allocator j ~row:from ~k1 ~k2
      end
    done;
    t.tables.(tid) <- empty_table ()
  done

let n_groups t = t.tables.(0).count

let materialize t ~allocator =
  let main = t.tables.(0) in
  let n = main.count in
  let n_cols = t.key_arity + Array.length t.accs in
  let cols = Array.init n_cols (fun _ -> A.alloc allocator (8 * Stdlib.max 1 n)) in
  let idx = ref 0 in
  for slot = 0 to main.mask do
    let row = slot_row t main slot in
    if row <> A.null then begin
      let i = !idx in
      incr idx;
      if t.key_arity >= 1 then A.set_i64 t.arena (cols.(0) + (8 * i)) (slot_k1 t main slot);
      if t.key_arity >= 2 then A.set_i64 t.arena (cols.(1) + (8 * i)) (slot_k2 t main slot);
      for j = 0 to Array.length t.accs - 1 do
        A.set_i64 t.arena (cols.(t.key_arity + j) + (8 * i)) (A.get_i64 t.arena (row + (8 * j)))
      done
    end
  done;
  (n, cols)
