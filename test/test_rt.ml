(* Tests for the query runtime: hash-join table, aggregation tables,
   dictionary, output buffers. *)

module A = Aeq_mem.Arena
module HT = Aeq_rt.Hash_table

let test_ht_basic () =
  let arena = A.create () in
  let alloc = A.allocator arena in
  let ht = HT.create arena ~expected_entries:100 ~payload_bytes:8 in
  for i = 0 to 99 do
    let p = HT.insert ht ~allocator:alloc ~key:(Int64.of_int (i mod 10)) in
    A.set_i64 arena p (Int64.of_int i)
  done;
  Alcotest.(check int) "size" 100 (HT.size ht);
  (* key 3 has 10 matches *)
  let count = ref 0 in
  let e = ref (HT.lookup ht ~key:3L) in
  while !e <> A.null do
    let v = A.get_i64 arena (!e + HT.payload_offset) in
    Alcotest.(check int) "payload key residue" 3 (Int64.to_int v mod 10);
    incr count;
    e := HT.next_match ht ~entry:!e
  done;
  Alcotest.(check int) "10 matches" 10 !count;
  Alcotest.(check int) "missing key" A.null (HT.lookup ht ~key:77L)

let test_ht_concurrent_build () =
  let arena = A.create () in
  let ht = HT.create arena ~expected_entries:4000 ~payload_bytes:8 in
  let n_domains = 4 and per = 1000 in
  let domains =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            let alloc = A.allocator arena in
            for i = 0 to per - 1 do
              let key = Int64.of_int ((d * per) + i) in
              let p = HT.insert ht ~allocator:alloc ~key in
              A.set_i64 arena p key
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "all inserted" (n_domains * per) (HT.size ht);
  for k = 0 to (n_domains * per) - 1 do
    let e = HT.lookup ht ~key:(Int64.of_int k) in
    if e = A.null then Alcotest.failf "key %d missing" k;
    let v = A.get_i64 arena (e + HT.payload_offset) in
    Alcotest.(check int64) "payload" (Int64.of_int k) v
  done

let test_agg_merge () =
  let arena = A.create () in
  let alloc = A.allocator arena in
  let agg =
    Aeq_rt.Agg.create arena ~n_threads:3 ~key_arity:1
      ~accs:[ Aeq_rt.Agg.Sum; Aeq_rt.Agg.Count; Aeq_rt.Agg.Min; Aeq_rt.Agg.Max ]
  in
  (* three "threads" each add values for keys 0..4 *)
  for tid = 0 to 2 do
    for i = 0 to 99 do
      let key = Int64.of_int (i mod 5) in
      let row = Aeq_rt.Agg.get_group agg ~tid ~allocator:alloc ~k1:key ~k2:0L in
      let v = Int64.of_int ((tid * 100) + i) in
      A.set_i64 arena row (Int64.add (A.get_i64 arena row) v);
      A.set_i64 arena (row + 8) (Int64.add (A.get_i64 arena (row + 8)) 1L);
      if Int64.compare v (A.get_i64 arena (row + 16)) < 0 then A.set_i64 arena (row + 16) v;
      if Int64.compare v (A.get_i64 arena (row + 24)) > 0 then A.set_i64 arena (row + 24) v
    done
  done;
  Aeq_rt.Agg.merge agg ~allocator:alloc;
  Alcotest.(check int) "5 groups" 5 (Aeq_rt.Agg.n_groups agg);
  let n, cols = Aeq_rt.Agg.materialize agg ~allocator:alloc in
  Alcotest.(check int) "materialized rows" 5 n;
  (* total count across groups = 300 *)
  let total = ref 0L in
  for i = 0 to n - 1 do
    total := Int64.add !total (A.get_i64 arena (cols.(2) + (8 * i)))
  done;
  Alcotest.(check int64) "count sums to 300" 300L !total

(* --- aggregation table against a Hashtbl reference ----------------- *)

module Agg = Aeq_rt.Agg

(* One update: thread [tid] folds [v] into group [(k1, k2)]. *)
type agg_op = { tid : int; k1 : int64; k2 : int64; v : int64 }

(* Runs [ops] through a 3-thread, arity-2 table with Sum/Count/Min/Max
   accumulators and compares the merged, materialized groups with a
   Hashtbl fold of the same updates. Also checks that a thread gets the
   same row for a group on every touch, across table growth. *)
let agg_matches_reference ops =
  let arena = A.create () in
  let alloc = A.allocator arena in
  let agg = Agg.create arena ~n_threads:3 ~key_arity:2 ~accs:[ Agg.Sum; Agg.Count; Agg.Min; Agg.Max ] in
  let reference = Hashtbl.create 64 and rows = Hashtbl.create 64 in
  List.iter
    (fun { tid; k1; k2; v } ->
      let row = Agg.get_group agg ~tid ~allocator:alloc ~k1 ~k2 in
      (match Hashtbl.find_opt rows (tid, k1, k2) with
      | Some r when r <> row -> Alcotest.failf "thread %d: group (%Ld, %Ld) moved" tid k1 k2
      | Some _ -> ()
      | None -> Hashtbl.replace rows (tid, k1, k2) row);
      let get i = A.get_i64 arena (row + (8 * i)) and set i x = A.set_i64 arena (row + (8 * i)) x in
      set 0 (Int64.add (get 0) v);
      set 1 (Int64.succ (get 1));
      set 2 (min (get 2) v);
      set 3 (max (get 3) v);
      let s, c, lo, hi =
        Option.value (Hashtbl.find_opt reference (k1, k2)) ~default:(0L, 0L, Int64.max_int, Int64.min_int)
      in
      Hashtbl.replace reference (k1, k2) (Int64.add s v, Int64.succ c, min lo v, max hi v))
    ops;
  Agg.merge agg ~allocator:alloc;
  let n, cols = Agg.materialize agg ~allocator:alloc in
  let col j i = A.get_i64 arena (cols.(j) + (8 * i)) in
  let got =
    List.sort compare
      (List.init n (fun i -> ((col 0 i, col 1 i), (col 2 i, col 3 i, col 4 i, col 5 i))))
  in
  let want = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) reference []) in
  Agg.n_groups agg = Hashtbl.length reference && got = want

let agg_key =
  QCheck.Gen.(
    frequency
      [
        (4, map Int64.of_int (int_bound 40));
        (2, oneofl [ 0L; -1L; Int64.min_int; Int64.max_int ]);
        (* agree in the low 32 bits: collide under any hash of the low word *)
        (2, map (fun i -> Int64.shift_left (Int64.of_int i) 32) (int_bound 40));
        (1, ui64);
      ])

let agg_ops_gen =
  QCheck.Gen.(
    list_size (int_bound 3000)
      (map
         (fun (tid, (k1, k2), v) -> { tid; k1; k2; v = Int64.of_int v })
         (triple (int_bound 2)
            (oneof [ pair agg_key agg_key; map (fun k -> (k, k)) agg_key ])
            small_signed_int)))

let prop_agg_reference =
  QCheck.Test.make ~name:"agg table = Hashtbl reference (3 threads, arity 2)" ~count:60
    (QCheck.make ~print:(fun ops -> Printf.sprintf "%d updates" (List.length ops)) agg_ops_gen)
    agg_matches_reference

(* Thousands of groups per thread force several growths; every thread
   touches the same keys plus its own, swapped pairs included. *)
let test_agg_many_groups () =
  let ops =
    List.concat_map
      (fun tid ->
        List.concat_map
          (fun i ->
            let k = Int64.of_int i in
            [
              { tid; k1 = k; k2 = Int64.neg k; v = Int64.of_int tid };
              { tid; k1 = Int64.neg k; k2 = k; v = 1L };
              { tid; k1 = Int64.of_int ((tid * 10_000) + i); k2 = 7L; v = k };
            ])
          (List.init 3000 Fun.id)
        @ [
            { tid; k1 = 0L; k2 = 0L; v = 5L };
            { tid; k1 = Int64.min_int; k2 = Int64.max_int; v = Int64.min_int };
            { tid; k1 = Int64.max_int; k2 = Int64.min_int; v = Int64.max_int };
          ])
      [ 0; 1; 2 ]
  in
  Alcotest.(check bool) "matches reference" true (agg_matches_reference ops)

let test_dict () =
  let d = Aeq_rt.Dict.create () in
  let a = Aeq_rt.Dict.encode d "hello" in
  let b = Aeq_rt.Dict.encode d "world" in
  let a' = Aeq_rt.Dict.encode d "hello" in
  Alcotest.(check int64) "stable" a a';
  Alcotest.(check bool) "distinct" true (not (Int64.equal a b));
  Alcotest.(check string) "decode" "world" (Aeq_rt.Dict.decode d b);
  let bm = Aeq_rt.Dict.codes_matching d (fun s -> String.length s = 5) in
  Alcotest.(check bool) "hello matches" true (Aeq_rt.Bitmap.get bm (Int64.to_int a));
  Alcotest.(check int) "both match" 2 (Aeq_rt.Bitmap.cardinality bm)

let test_output () =
  let arena = A.create () in
  let alloc = A.allocator arena in
  let out = Aeq_rt.Output.create arena ~n_threads:2 ~row_bytes:16 in
  for i = 0 to 9 do
    let p = Aeq_rt.Output.row out ~tid:(i mod 2) ~allocator:alloc in
    A.set_i64 arena p (Int64.of_int i)
  done;
  Alcotest.(check int) "count" 10 (Aeq_rt.Output.count out);
  let rows = Aeq_rt.Output.rows out in
  Alcotest.(check int) "rows array" 10 (Array.length rows);
  let seen = Array.to_list rows |> List.map (fun p -> A.get_i64 arena p) |> List.sort compare in
  Alcotest.(check bool) "all values present" true
    (seen = List.init 10 (fun i -> Int64.of_int i))

let test_year_of () =
  (* 1970-01-01 = 0, 1998-09-02, 1992-01-01 *)
  Alcotest.(check int64) "1970" 1970L (Aeq_rt.Symbols.year_of_days 0L);
  Alcotest.(check int64) "1992" 1992L (Aeq_rt.Symbols.year_of_days 8035L);
  Alcotest.(check int64) "1998" 1998L (Aeq_rt.Symbols.year_of_days 10471L)

let () =
  Alcotest.run "rt"
    [
      ( "hash table",
        [
          Alcotest.test_case "basic" `Quick test_ht_basic;
          Alcotest.test_case "concurrent build" `Quick test_ht_concurrent_build;
        ] );
      ( "agg",
        [
          Alcotest.test_case "merge/materialize" `Quick test_agg_merge;
          Alcotest.test_case "many groups" `Quick test_agg_many_groups;
          QCheck_alcotest.to_alcotest prop_agg_reference;
        ] );
      ("dict", [ Alcotest.test_case "encode/decode/match" `Quick test_dict ]);
      ("output", [ Alcotest.test_case "rows" `Quick test_output ]);
      ("dates", [ Alcotest.test_case "year_of" `Quick test_year_of ]);
    ]
