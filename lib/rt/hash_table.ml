module A = Aeq_mem.Arena

(* bucket heads are written under their stripe lock during the build
   phase; probe-phase reads are lock-free, ordered after every insert
   by the pool barrier between pipelines (so only inserts are
   instrumented — a location per stripe, since stripes guard disjoint
   bucket subsets) *)
let () = Aeq_race.declare "rt.ht.buckets" (Aeq_race.Lock "rt.ht.stripe")

type t = {
  arena : A.t;
  buckets : int array;
  mask : int;
  locks : Aeq_race.Lock.t array;
  locs : Aeq_race.location array; (* one per stripe *)
  payload_bytes : int;
  count : int Atomic.t;
}

let payload_offset = 16

let n_stripes = 64

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 16

let create arena ~expected_entries ~payload_bytes =
  let n = next_pow2 (Stdlib.max 16 (2 * expected_entries)) in
  {
    arena;
    buckets = Array.make n A.null;
    mask = n - 1;
    locks = Array.init n_stripes (fun _ -> Aeq_race.Lock.create "rt.ht.stripe");
    locs = Array.init n_stripes (fun _ -> Aeq_race.locate "rt.ht.buckets");
    payload_bytes;
    count = Atomic.make 0;
  }

(* splitmix-style finalizer *)
let[@inline] hash key =
  let h = Int64.mul (Int64.logxor key (Int64.shift_right_logical key 33)) 0xFF51AFD7ED558CCDL in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 33)) 0xC4CEB9FE1A85EC53L in
  Int64.to_int (Int64.logxor h (Int64.shift_right_logical h 33)) land max_int

(* Push [entry] onto its bucket's chain. Takes no [int64], so the
   inlined part of [insert] boxes nothing. *)
let link t ~entry ~b =
  let s = b land (n_stripes - 1) in
  let stripe = t.locks.(s) in
  Aeq_race.Lock.lock stripe;
  Aeq_race.write ~site:"ht.insert" t.locs.(s);
  A.set_i64 t.arena entry (Int64.of_int t.buckets.(b));
  t.buckets.(b) <- entry;
  Aeq_race.Lock.unlock stripe;
  Atomic.incr t.count;
  entry + payload_offset

let[@inline] insert t ~allocator ~key =
  let entry = A.alloc allocator (payload_offset + t.payload_bytes) in
  A.set_i64 t.arena (entry + 8) key;
  link t ~entry ~b:(hash key land t.mask)

(* First entry from [e] on along its chain whose key is [key]. *)
let[@inline] walk t e ~key =
  let e = ref e in
  while !e <> A.null && not (Int64.equal (A.get_i64 t.arena (!e + 8)) key) do
    e := Int64.to_int (A.get_i64 t.arena !e)
  done;
  !e

let[@inline] lookup t ~key = walk t t.buckets.(hash key land t.mask) ~key

let[@inline] next_match t ~entry =
  walk t (Int64.to_int (A.get_i64 t.arena entry)) ~key:(A.get_i64 t.arena (entry + 8))

let size t = Atomic.get t.count
