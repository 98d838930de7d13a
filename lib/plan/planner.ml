module Ast = Aeq_sql.Ast
module Dtype = Aeq_storage.Dtype
module Table = Aeq_storage.Table

exception Plan_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Plan_error s)) fmt

(* ---------------------------------------------------------------- *)
(* Binding environment                                                *)
(* ---------------------------------------------------------------- *)

(* A dictionary predicate, by what decides its bitmap: the bitmap is
   over dictionary codes, so it does not depend on the column. *)
type pred_key = In_set of string list (* sorted, distinct *) | Like_pattern of string

type env = {
  catalog : Aeq_storage.Catalog.t;
  trefs : (Table.t * string) array;
  mutable preds : (pred_key * Aeq_rt.Bitmap.t) list; (* reversed *)
  mutable n_preds : int;
}

let resolve_col env qual name =
  let matches =
    Array.to_list env.trefs
    |> List.mapi (fun i (tbl, alias) -> (i, tbl, alias))
    |> List.filter_map (fun (i, tbl, alias) ->
           let qual_ok =
             match qual with
             | Some q -> String.equal q alias || String.equal q tbl.Table.name
             | None -> true
           in
           if not qual_ok then None
           else
             match Table.column_index tbl name with
             | idx -> Some (i, idx, tbl.Table.columns.(idx).Table.dtype)
             | exception Not_found -> None)
  in
  match matches with
  | [ m ] -> m
  | [] ->
    fail "unknown column %s%s"
      (match qual with Some q -> q ^ "." | None -> "")
      name
  | _ -> fail "ambiguous column %s" name

(* Id of the bitmap for [key], evaluating it over the dictionary only
   the first time a query mentions the predicate. *)
let pred_id env key matches =
  let rec find i = function
    | [] -> None
    | (k, _) :: rest -> if k = key then Some (env.n_preds - 1 - i) else find (i + 1) rest
  in
  match find 0 env.preds with
  | Some id -> id
  | None ->
    let bm = Aeq_rt.Dict.codes_matching (Aeq_storage.Catalog.dict env.catalog) matches in
    env.preds <- (key, bm) :: env.preds;
    env.n_preds <- env.n_preds + 1;
    env.n_preds - 1

(* SQL LIKE pattern -> predicate on a string ( % and _ wildcards ).
   Evaluated over every dictionary entry at plan time, so the common
   shapes (prefix%, %suffix, %infix%) get allocation-free fast
   paths. *)
let is_plain pattern = String.for_all (fun c -> c <> '%' && c <> '_') pattern

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let like_matcher pattern =
  let n = String.length pattern in
  let prefix_case =
    n > 0 && pattern.[n - 1] = '%' && is_plain (String.sub pattern 0 (n - 1))
  in
  let suffix_case = n > 0 && pattern.[0] = '%' && is_plain (String.sub pattern 1 (n - 1)) in
  let infix_case =
    n > 1 && pattern.[0] = '%' && pattern.[n - 1] = '%'
    && is_plain (String.sub pattern 1 (n - 2))
  in
  if infix_case then begin
    let inner = String.sub pattern 1 (n - 2) in
    fun s -> contains_sub s inner
  end
  else if prefix_case then begin
    let p = String.sub pattern 0 (n - 1) in
    let pl = String.length p in
    fun s -> String.length s >= pl && String.sub s 0 pl = p
  end
  else if suffix_case then begin
    let p = String.sub pattern 1 (n - 1) in
    let pl = String.length p in
    fun s -> String.length s >= pl && String.sub s (String.length s - pl) pl = p
  end
  else
    fun s ->
      let m = String.length s in
      (* memoised recursive match for general patterns *)
      let memo = Hashtbl.create 64 in
      let rec go i j =
        match Hashtbl.find_opt memo (i, j) with
        | Some r -> r
        | None ->
          let r =
            if i >= n then j >= m
            else
              match pattern.[i] with
              | '%' -> go (i + 1) j || (j < m && go i (j + 1))
              | '_' -> j < m && go (i + 1) (j + 1)
              | c -> j < m && s.[j] = c && go (i + 1) (j + 1)
          in
          Hashtbl.replace memo (i, j) r;
          r
      in
      go 0 0

let scale_const = Int64.of_int Dtype.scale

(* Promote int to decimal in mixed arithmetic/comparison. *)
let promote a b =
  let da = Scalar.dtype a and db = Scalar.dtype b in
  let rescale e =
    match e with
    | Scalar.Const (n, Dtype.Int) -> Scalar.Const (Int64.mul n scale_const, Dtype.Decimal)
    | _ -> Scalar.Bin (Ast.Mul, e, Scalar.Const (scale_const, Dtype.Int), Dtype.Decimal)
  in
  match (da, db) with
  | Dtype.Int, Dtype.Decimal -> (rescale a, b, Dtype.Decimal)
  | Dtype.Decimal, Dtype.Int -> (a, rescale b, Dtype.Decimal)
  | Dtype.Int, Dtype.Int -> (a, b, Dtype.Int)
  | Dtype.Decimal, Dtype.Decimal -> (a, b, Dtype.Decimal)
  | Dtype.Date, Dtype.Date -> (a, b, Dtype.Date)
  | Dtype.Date, Dtype.Int | Dtype.Int, Dtype.Date -> (a, b, Dtype.Date)
  | Dtype.Str, Dtype.Str -> (a, b, Dtype.Str)
  | Dtype.Bool, Dtype.Bool -> (a, b, Dtype.Bool)
  | _ -> fail "type mismatch: %s vs %s" (Dtype.to_string da) (Dtype.to_string db)

(* Bind an AST expression that must not contain aggregates. *)
let rec bind env (e : Ast.expr) : Scalar.t =
  match e with
  | Ast.Col (qual, name) ->
    let tref, col, dtype = resolve_col env qual name in
    Scalar.Col { tref; col; dtype }
  | Ast.Lit_int n -> Scalar.Const (n, Dtype.Int)
  | Ast.Lit_dec n -> Scalar.Const (n, Dtype.Decimal)
  | Ast.Lit_date d -> Scalar.Const (Int64.of_int d, Dtype.Date)
  | Ast.Lit_str s ->
    Scalar.Const (Aeq_rt.Dict.encode (Aeq_storage.Catalog.dict env.catalog) s, Dtype.Str)
  | Ast.Neg e -> (
    match bind env e with
    | Scalar.Const (n, dt) -> Scalar.Const (Int64.neg n, dt)
    | s -> Scalar.Bin (Ast.Sub, Scalar.Const (0L, Scalar.dtype s), s, Scalar.dtype s))
  | Ast.Not e -> Scalar.Not (bind env e)
  | Ast.Bin (op, a, b) -> bind_bin env op a b
  | Ast.Between (e, lo, hi) ->
    let ge = bind_bin env Ast.Ge e lo and le = bind_bin env Ast.Le e hi in
    Scalar.Bin (Ast.And, ge, le, Dtype.Bool)
  | Ast.In_list (e, items) -> (
    let s = bind env e in
    match Scalar.dtype s with
    | Dtype.Str ->
      let wanted =
        List.map
          (function
            | Ast.Lit_str x -> x
            | _ -> fail "IN over strings expects string literals")
          items
        |> List.sort_uniq String.compare
      in
      Scalar.Dict_match (pred_id env (In_set wanted) (fun s -> List.mem s wanted), s)
    | _ ->
      let eqs = List.map (fun item -> bind_bin env Ast.Eq e item) items in
      List.fold_left
        (fun acc eq -> Scalar.Bin (Ast.Or, acc, eq, Dtype.Bool))
        (List.hd eqs) (List.tl eqs))
  | Ast.Like (e, pattern) -> (
    let s = bind env e in
    match Scalar.dtype s with
    | Dtype.Str ->
      Scalar.Dict_match (pred_id env (Like_pattern pattern) (like_matcher pattern), s)
    | _ -> fail "LIKE requires a string operand")
  | Ast.Extract_year e -> (
    let s = bind env e in
    match Scalar.dtype s with
    | Dtype.Date -> Scalar.Year s
    | _ -> fail "EXTRACT(YEAR ...) requires a date")
  | Ast.Case (whens, els) ->
    let bwhens = List.map (fun (c, v) -> (bind env c, bind env v)) whens in
    let result_dtype = Scalar.dtype (snd (List.hd bwhens)) in
    let bels =
      match els with Some e -> bind env e | None -> Scalar.Const (0L, result_dtype)
    in
    List.iter
      (fun (c, v) ->
        if Scalar.dtype c <> Dtype.Bool then fail "CASE condition must be boolean";
        if Scalar.dtype v <> result_dtype then fail "CASE arms must have one type")
      bwhens;
    Scalar.Case (bwhens, bels, result_dtype)
  | Ast.Agg _ -> fail "aggregate in invalid position"

and bind_bin env op a b =
  let sa = bind env a and sb = bind env b in
  match op with
  | Ast.And | Ast.Or ->
    if Scalar.dtype sa <> Dtype.Bool || Scalar.dtype sb <> Dtype.Bool then
      fail "AND/OR require boolean operands";
    Scalar.Bin (op, sa, sb, Dtype.Bool)
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
    let sa, sb, dt = promote sa sb in
    if Dtype.equal dt Dtype.Str && not (op = Ast.Eq || op = Ast.Ne) then
      fail "string comparison supports only = and <>";
    Scalar.Bin (op, sa, sb, Dtype.Bool)
  | Ast.Add | Ast.Sub ->
    let sa, sb, dt = promote sa sb in
    (match dt with
    | Dtype.Int | Dtype.Decimal | Dtype.Date -> ()
    | _ -> fail "arithmetic on non-numeric type");
    Scalar.Bin (op, sa, sb, dt)
  | Ast.Mul | Ast.Div ->
    let sa, sb, dt = promote sa sb in
    (match dt with
    | Dtype.Int | Dtype.Decimal -> ()
    | _ -> fail "arithmetic on non-numeric type");
    Scalar.Bin (op, sa, sb, dt)

(* conjunct splitting *)
let rec conjuncts = function
  | Ast.Bin (Ast.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* ---------------------------------------------------------------- *)
(* Aggregate extraction                                               *)
(* ---------------------------------------------------------------- *)

type agg_acc = { kind : Aeq_rt.Agg.acc_kind; arg : Scalar.t option; dtype : Dtype.t }

type agg_state = {
  mutable accs : agg_acc list; (* reversed *)
  mutable n_accs : int;
  key_scalars : Scalar.t list;
}

let find_or_add_acc st kind arg dtype =
  let rec find i = function
    | [] -> None
    | a :: rest ->
      if a.kind = kind && a.arg = arg then Some (st.n_accs - 1 - i) else find (i + 1) rest
  in
  match find 0 st.accs with
  | Some idx -> idx
  | None ->
    st.accs <- { kind; arg; dtype } :: st.accs;
    st.n_accs <- st.n_accs + 1;
    st.n_accs - 1

let key_arity st = List.length st.key_scalars

let rec has_agg = function
  | Ast.Agg _ -> true
  | Ast.Bin (_, a, b) -> has_agg a || has_agg b
  | Ast.Neg e | Ast.Not e | Ast.Extract_year e -> has_agg e
  | Ast.Between (a, b, c) -> has_agg a || has_agg b || has_agg c
  | Ast.In_list (e, xs) -> has_agg e || List.exists has_agg xs
  | Ast.Like (e, _) -> has_agg e
  | Ast.Case (whens, els) ->
    List.exists (fun (c, v) -> has_agg c || has_agg v) whens
    || (match els with Some e -> has_agg e | None -> false)
  | Ast.Col _ | Ast.Lit_int _ | Ast.Lit_dec _ | Ast.Lit_str _ | Ast.Lit_date _ -> false

(* Rewrite a bound-or-aggregate expression into a scalar over the
   materialised aggregate table: group keys become Acol 0/1, each
   aggregate becomes Acol (key_arity + acc index). *)
let rec rewrite_agg env st (e : Ast.expr) : Scalar.t =
  match e with
  | Ast.Agg (fn, arg) -> (
    let barg = Option.map (bind env) arg in
    let arg_dtype = match barg with Some s -> Scalar.dtype s | None -> Dtype.Int in
    match fn with
    | Ast.Count ->
      let idx = find_or_add_acc st Aeq_rt.Agg.Count None Dtype.Int in
      Scalar.Acol { idx = key_arity st + idx; dtype = Dtype.Int }
    | Ast.Sum ->
      let idx = find_or_add_acc st Aeq_rt.Agg.Sum barg arg_dtype in
      Scalar.Acol { idx = key_arity st + idx; dtype = arg_dtype }
    | Ast.Min ->
      let idx = find_or_add_acc st Aeq_rt.Agg.Min barg arg_dtype in
      Scalar.Acol { idx = key_arity st + idx; dtype = arg_dtype }
    | Ast.Max ->
      let idx = find_or_add_acc st Aeq_rt.Agg.Max barg arg_dtype in
      Scalar.Acol { idx = key_arity st + idx; dtype = arg_dtype }
    | Ast.Avg ->
      let sum_idx = find_or_add_acc st Aeq_rt.Agg.Sum barg arg_dtype in
      let cnt_idx = find_or_add_acc st Aeq_rt.Agg.Count None Dtype.Int in
      Scalar.Bin
        ( Ast.Div,
          Scalar.Acol { idx = key_arity st + sum_idx; dtype = arg_dtype },
          Scalar.Acol { idx = key_arity st + cnt_idx; dtype = Dtype.Int },
          arg_dtype ))
  | _ when has_agg e ->
    (* an expression over aggregates (HAVING sum(..) > c, ratios of
       sums, ...): recurse structurally *)
    rewrite_agg_structural env st e
  | _ -> (
    (* aggregate-free: must be expressible over the group keys *)
    let bound = bind env e in
    match
      List.mapi (fun i k -> (i, k)) st.key_scalars
      |> List.find_opt (fun (_, k) -> k = bound)
    with
    | Some (i, k) -> Scalar.Acol { idx = i; dtype = Scalar.dtype k }
    | None -> rewrite_agg_structural env st e)

(* expressions over aggregates / keys, e.g. sum(a) / sum(b) or
   key-expression arithmetic *)
and rewrite_agg_structural env st (e : Ast.expr) : Scalar.t =
  match e with
  | Ast.Bin (op, a, b) -> (
    let ra = rewrite_agg env st a and rb = rewrite_agg env st b in
    match op with
    | Ast.And | Ast.Or -> Scalar.Bin (op, ra, rb, Dtype.Bool)
    | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      let ra, rb, _ = promote ra rb in
      Scalar.Bin (op, ra, rb, Dtype.Bool)
    | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div ->
      let ra, rb, dt = promote ra rb in
      Scalar.Bin (op, ra, rb, dt))
  | Ast.Not e -> Scalar.Not (rewrite_agg env st e)
  | Ast.Lit_int n -> Scalar.Const (n, Dtype.Int)
  | Ast.Lit_dec n -> Scalar.Const (n, Dtype.Decimal)
  | Ast.Lit_date d -> Scalar.Const (Int64.of_int d, Dtype.Date)
  | Ast.Lit_str s ->
    Scalar.Const (Aeq_rt.Dict.encode (Aeq_storage.Catalog.dict env.catalog) s, Dtype.Str)
  | _ -> fail "expression %s is neither an aggregate nor a group key" (Ast.expr_to_string e)

(* ---------------------------------------------------------------- *)
(* Cardinality information                                            *)
(* ---------------------------------------------------------------- *)

let rec disjuncts = function
  | Scalar.Bin (Ast.Or, a, b, _) -> disjuncts a @ disjuncts b
  | s -> [ s ]

let rec atoms = function Scalar.Bin (Ast.And, a, b, _) -> atoms a @ atoms b | s -> [ s ]

let fold_bool op = function
  | [] -> assert false
  | x :: xs -> List.fold_left (fun acc a -> Scalar.Bin (op, acc, a, Dtype.Bool)) x xs

let add_distinct acc x = if List.mem x acc then acc else acc @ [ x ]

(* An atom that cannot trap on any row: a comparison or dictionary
   match over columns and constants. Arithmetic (overflow-checked, or
   a division) never qualifies, so a lifted filter never runs an
   operation on a row the original plan did not evaluate it on. *)
let trap_free =
  let operand = function Scalar.Col _ | Scalar.Const _ -> true | _ -> false in
  function
  | Scalar.Bin ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), a, b, _) ->
    operand a && operand b
  | Scalar.Dict_match (_, e) -> operand e
  | _ -> false

(* Filters implied by a disjunction D1 ∨ … ∨ Dk: each trap-free atom
   common to all Di, and for each table T of which every Di has a
   trap-free T-only atom, ∨i (∧ T-only atoms of Di) — a filter the
   plan can apply while scanning T. The disjunction itself stays as
   the residual filter. *)
let implied_filters = function
  | Scalar.Bin (Ast.Or, _, _, _) as d -> (
    match List.map (fun di -> List.filter trap_free (atoms di)) (disjuncts d) with
    | [] -> []
    | first :: _ as branches ->
      let common =
        List.filter (fun a -> List.for_all (List.mem a) branches) first
        |> List.fold_left add_distinct []
      in
      (* each remaining atom with the table it reads, if only one *)
      let branches =
        List.map
          (List.filter_map (fun a ->
               if List.mem a common then None
               else
                 match Scalar.trefs_used a with [ t ] -> Some (t, a) | _ -> None))
          branches
      in
      let per_table t =
        let local =
          List.map (List.filter_map (fun (u, a) -> if u = t then Some a else None)) branches
        in
        if List.mem [] local then None
        else Some (fold_bool Ast.Or (List.map (fold_bool Ast.And) local))
      in
      common
      @ List.filter_map per_table (List.sort_uniq compare (List.map fst (List.hd branches))))
  | _ -> []

(* Rows sampled per table to estimate its filters' selectivity. *)
let sample_rows = 64

(* Estimated fraction of [tbl]'s rows that pass all of [filters]:
   exact for a table of at most [sample_rows] rows, otherwise measured
   over [sample_rows] evenly strided rows, with no hit read as one (a
   sample cannot tell 0 from "below 1/64"). A filter that traps on a
   sampled row makes the estimate 1. *)
let selectivity arena preds (tbl : Table.t) filters =
  let n = tbl.Table.n_rows in
  if filters = [] || n = 0 then 1.0
  else begin
    let m = Stdlib.min n sample_rows in
    let row = ref 0 in
    let col ~tref:_ ~col = Table.get arena tbl ~col ~row:!row in
    let acol _ = 0L in
    let pred id code = Aeq_rt.Bitmap.get preds.(id) (Int64.to_int code) in
    let passes f = Scalar_eval.eval_bool ~col ~acol ~pred f in
    match
      let hits = ref 0 in
      for k = 0 to m - 1 do
        row := k * n / m;
        if List.for_all passes filters then incr hits
      done;
      !hits
    with
    | hits when m = n -> float_of_int hits /. float_of_int n
    | hits -> float_of_int (Stdlib.max hits 1) /. float_of_int m
    | exception Aeq_ir.Trap.Error _ -> 1.0
  end

(* Selectivity credited to a join edge or multi-table filter that
   becomes evaluable once a candidate table joins. *)
let residual_selectivity = 0.1

(* ---------------------------------------------------------------- *)
(* Physical planning                                                  *)
(* ---------------------------------------------------------------- *)

let plan catalog (q : Ast.query) : Physical.t =
  (* 1. table references *)
  let trefs =
    List.map
      (fun (name, alias) ->
        let tbl =
          try Aeq_storage.Catalog.table catalog name
          with Not_found -> fail "unknown table %s" name
        in
        (tbl, Option.value alias ~default:name))
      q.Ast.from
    |> Array.of_list
  in
  let aliases = Array.to_list trefs |> List.map snd in
  if List.length (List.sort_uniq compare aliases) <> List.length aliases then
    fail "duplicate table aliases";
  let env = { catalog; trefs; preds = []; n_preds = 0 } in
  let n_trefs = Array.length trefs in
  (* 2. conjuncts: WHERE + ON *)
  let all_conj =
    (match q.Ast.where with Some w -> conjuncts w | None -> [])
    @ List.concat_map conjuncts q.Ast.join_on
  in
  let bound_conj = List.map (fun c -> bind env c) all_conj in
  List.iter
    (fun c ->
      if Scalar.dtype c <> Dtype.Bool then fail "WHERE conjunct is not boolean")
    bound_conj;
  (* filters implied by disjunctions join the conjuncts (a common
     equality between two tables becomes a join edge) *)
  let bound_conj =
    List.fold_left add_distinct bound_conj (List.concat_map implied_filters bound_conj)
  in
  (* split equi-joins from filters *)
  let joins = ref [] in
  let filters = ref [] in
  List.iter
    (fun c ->
      match c with
      | Scalar.Bin (Ast.Eq, Scalar.Col a, Scalar.Col b, _) when a.tref <> b.tref ->
        joins := (a.tref, a.col, b.tref, b.col) :: !joins
      | _ -> filters := c :: !filters)
    bound_conj;
  let joins = List.rev !joins and filters = List.rev !filters in
  (* 3. aggregation analysis *)
  let aggregating = q.Ast.group_by <> [] || List.exists (fun it -> has_agg it.Ast.expr) q.Ast.select in
  let group_keys = List.map (bind env) q.Ast.group_by in
  if List.length group_keys > 2 then fail "at most two GROUP BY keys are supported";
  let agg_st = { accs = []; n_accs = 0; key_scalars = group_keys } in
  let projections, proj_names =
    List.mapi
      (fun i (it : Ast.select_item) ->
        let name =
          match (it.Ast.alias, it.Ast.expr) with
          | Some a, _ -> a
          | None, Ast.Col (_, n) -> n
          | None, _ -> Printf.sprintf "col%d" i
        in
        let s = if aggregating then rewrite_agg env agg_st it.Ast.expr else bind env it.Ast.expr in
        (s, name))
      q.Ast.select
    |> List.split
  in
  let having =
    match q.Ast.having with
    | None -> None
    | Some h ->
      if not aggregating then fail "HAVING without aggregation";
      Some (rewrite_agg env agg_st h)
  in
  (* 4. ORDER BY: match a projection by alias, position, or structure *)
  let order_by =
    List.map
      (fun (o : Ast.order_item) ->
        let idx =
          match o.Ast.key with
          | Ast.Lit_int n when Int64.to_int n >= 1 && Int64.to_int n <= List.length projections
            ->
            Int64.to_int n - 1
          | Ast.Col (None, name)
            when List.exists (fun pn -> String.equal pn name) proj_names ->
            let rec find i = function
              | [] -> assert false
              | pn :: _ when String.equal pn name -> i
              | _ :: rest -> find (i + 1) rest
            in
            find 0 proj_names
          | e -> (
            let s = if aggregating then rewrite_agg env agg_st e else bind env e in
            match
              List.mapi (fun i p -> (i, p)) projections |> List.find_opt (fun (_, p) -> p = s)
            with
            | Some (i, _) -> i
            | None -> fail "ORDER BY key must appear in the SELECT list")
        in
        (idx, o.Ast.desc))
      q.Ast.order_by
  in
  (* 5. join order: the largest table drives; the others join greedily *)
  let driver =
    let best = ref 0 in
    for i = 1 to n_trefs - 1 do
      if (fst trefs.(i)).Table.n_rows > (fst trefs.(!best)).Table.n_rows then best := i
    done;
    !best
  in
  (* estimated selectivity of each table's single-table filters, and
     the tables of each multi-table filter *)
  let filter_trefs = List.map (fun f -> (f, Scalar.trefs_used f)) filters in
  let sel =
    let preds = Array.of_list (List.rev_map snd env.preds) in
    let arena = Aeq_storage.Catalog.arena catalog in
    Array.init n_trefs (fun t ->
        if t = driver then 1.0
        else
          selectivity arena preds (fst trefs.(t))
            (List.filter_map (fun (f, ts) -> if ts = [ t ] then Some f else None) filter_trefs))
  in
  let multi_tref_filters =
    List.filter_map (function _, (_ :: _ :: _ as ts) -> Some ts | _ -> None) filter_trefs
  in
  let available = Array.make n_trefs false in
  available.(driver) <- true;
  let probe_order = ref [] in
  (* (build_tref, build_col, probe_key_tref, probe_key_col) *)
  let remaining = ref joins in
  let extra_join_filters = ref [] in
  (* the tables not yet joined that are reachable from the joined ones
     only through [b] *)
  let branch b =
    let seen = Array.copy available in
    seen.(b) <- true;
    let rec visit t =
      List.iter
        (fun (ta, _, tb, _) ->
          let next = if ta = t then tb else if tb = t then ta else -1 in
          if next >= 0 && not seen.(next) then begin
            seen.(next) <- true;
            visit next
          end)
        joins
    in
    Array.iteri (fun t a -> if a then visit t) available;
    List.filter (fun t -> t = b || not seen.(t)) (List.init n_trefs Fun.id)
  in
  (* join edges (besides [edge]) and multi-table filters that joining
     [b] makes evaluable *)
  let residuals edge b =
    let joined t = t = b || available.(t) in
    List.length
      (List.filter
         (fun ((ta, _, tb, _) as e) -> e != edge && (ta = b || tb = b) && joined ta && joined tb)
         !remaining)
    + List.length
        (List.filter (fun ts -> List.mem b ts && List.for_all joined ts) multi_tref_filters)
  in
  (* Greedy expansion. Key-first is a hard rule: among edges whose one
     side is already reachable, build the hash table on the new
     table's primary key when any edge allows it (column 0 by schema
     convention — e.g. join customers through c_custkey, and leave
     c_nationkey = s_nationkey as a residual filter). Among those
     candidates, take the one whose branch has the smallest estimated
     selectivity product, crediting each residual it makes evaluable,
     then the smaller table. *)
  let rank (edge, (b, _, _, _)) =
    let branch_sel = List.fold_left (fun acc t -> acc *. sel.(t)) 1.0 (branch b) in
    (branch_sel *. (residual_selectivity ** float_of_int (residuals edge b)),
     (fst trefs.(b)).Table.n_rows)
  in
  let rec expand () =
    (* drop edges whose both sides are reachable: residual filters *)
    let keep =
      List.filter
        (fun (ta, ca, tb, cb) ->
          if available.(ta) && available.(tb) then begin
            let da = (fst trefs.(ta)).Table.columns.(ca).Table.dtype in
            extra_join_filters :=
              Scalar.Bin
                ( Ast.Eq,
                  Scalar.Col { tref = ta; col = ca; dtype = da },
                  Scalar.Col { tref = tb; col = cb; dtype = da },
                  Dtype.Bool )
              :: !extra_join_filters;
            false
          end
          else true)
        !remaining
    in
    remaining := keep;
    (* candidate edges: exactly one side reachable; normalise to
       (build_tref, build_col, probe_tref, probe_col) *)
    let candidates =
      List.filter_map
        (fun ((ta, ca, tb, cb) as edge) ->
          if available.(ta) && not available.(tb) then Some (edge, (tb, cb, ta, ca))
          else if available.(tb) && not available.(ta) then Some (edge, (ta, ca, tb, cb))
          else None)
        keep
    in
    match candidates with
    | [] -> ()
    | _ ->
      let pool =
        match List.filter (fun (_, (_, build_col, _, _)) -> build_col = 0) candidates with
        | [] -> candidates
        | keyed -> keyed
      in
      let ranked = List.map (fun c -> (rank c, c)) pool in
      let _, (edge, probe) =
        List.fold_left
          (fun best r -> if compare (fst r) (fst best) < 0 then r else best)
          (List.hd ranked) (List.tl ranked)
      in
      let build_tref, _, _, _ = probe in
      available.(build_tref) <- true;
      probe_order := probe :: !probe_order;
      remaining := List.filter (fun e -> e != edge) !remaining;
      expand ()
  in
  expand ();
  if !remaining <> [] || Array.exists not available then
    fail "query requires a cross product (unconnected join graph)";
  let probe_order = List.rev !probe_order in
  let filters = filters @ List.rev !extra_join_filters in
  (* position of each tref in the probe chain: driver = 0 *)
  let position = Array.make n_trefs (-1) in
  position.(driver) <- 0;
  List.iteri (fun i (tb, _, _, _) -> position.(tb) <- i + 1) probe_order;
  (* 6. needed columns of each build table = columns referenced by
     anything evaluated in or after the driver pipeline *)
  let needed : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let note_col tref col =
    if tref <> driver then begin
      let l =
        match Hashtbl.find_opt needed tref with
        | Some l -> l
        | None ->
          let l = ref [] in
          Hashtbl.replace needed tref l;
          l
      in
      if not (List.mem col !l) then l := col :: !l
    end
  in
  let rec note_scalar (s : Scalar.t) =
    match s with
    | Scalar.Col { tref; col; _ } -> note_col tref col
    | Scalar.Acol _ | Scalar.Const _ -> ()
    | Scalar.Bin (_, a, b, _) ->
      note_scalar a;
      note_scalar b
    | Scalar.Year e | Scalar.Dict_match (_, e) | Scalar.Not e -> note_scalar e
    | Scalar.Case (whens, els, _) ->
      List.iter
        (fun (c, v) ->
          note_scalar c;
          note_scalar v)
        whens;
      note_scalar els
  in
  (* things evaluated in the driver pipeline *)
  let driver_filters, local_filters =
    List.partition
      (fun f ->
        match Scalar.trefs_used f with
        | [] -> true
        | [ t ] -> t = driver
        | _ -> true (* multi-tref filters run in the driver pipeline *))
      filters
  in
  let driver_filters, probe_attached_filters =
    List.partition
      (fun f ->
        match Scalar.trefs_used f with [] -> true | [ t ] -> t = driver | _ -> false)
      driver_filters
  in
  List.iter note_scalar probe_attached_filters;
  if not aggregating then List.iter note_scalar projections
  else begin
    List.iter note_scalar group_keys;
    List.iter (fun a -> match a.arg with Some s -> note_scalar s | None -> ()) (List.rev agg_st.accs)
  end;
  (* probe keys reference the probe-side column *)
  List.iter
    (fun (_tb, _cb, ta, ca) -> note_col ta ca)
    probe_order;
  (* 7. hash-table specs; ids follow probe order *)
  let ht_specs =
    List.mapi
      (fun _i (tb, cb, _ta, _ca) ->
        let tbl = fst trefs.(tb) in
        let cols = match Hashtbl.find_opt needed tb with Some l -> List.rev !l | None -> [] in
        let payload = List.mapi (fun k c -> (c, 8 * k)) cols in
        {
          Physical.ht_build_tref = tb;
          ht_key =
            Scalar.Col { tref = tb; col = cb; dtype = tbl.Table.columns.(cb).Table.dtype };
          ht_payload = payload;
          ht_payload_bytes = 8 * List.length payload;
          (* chained, so an underestimate only lengthens chains *)
          ht_expected =
            int_of_float (Float.ceil (sel.(tb) *. float_of_int tbl.Table.n_rows));
        })
      probe_order
  in
  (* 8. probes, with attached filters at the latest needed position *)
  let probes =
    List.mapi
      (fun i (tb, _cb, ta, ca) ->
        let key_dtype = (fst trefs.(ta)).Table.columns.(ca).Table.dtype in
        {
          Physical.pr_ht = i;
          pr_key = Scalar.Col { tref = ta; col = ca; dtype = key_dtype };
          pr_tref = tb;
          pr_filters = [];
        })
      probe_order
  in
  let probes =
    (* attach each multi-tref filter to the last probe it depends on *)
    let arr = Array.of_list probes in
    List.iter
      (fun f ->
        let pos =
          Scalar.trefs_used f |> List.map (fun t -> position.(t)) |> List.fold_left max 0
        in
        if pos = 0 then () (* handled as scan filter below *)
        else begin
          let p = arr.(pos - 1) in
          arr.(pos - 1) <- { p with Physical.pr_filters = p.Physical.pr_filters @ [ f ] }
        end)
      probe_attached_filters;
    Array.to_list arr
  in
  let driver_scan_filters =
    driver_filters
    @ List.filter
        (fun f ->
          Scalar.trefs_used f |> List.map (fun t -> position.(t)) |> List.fold_left max 0
          = 0)
        probe_attached_filters
  in
  (* 9. sinks and pipelines *)
  let accs = List.rev agg_st.accs in
  let agg_cfg =
    if aggregating then
      Some
        {
          Physical.agg_key_arity = List.length group_keys;
          agg_accs = List.map (fun a -> (a.kind, a.dtype)) accs;
        }
    else None
  in
  let out_cfg =
    {
      Physical.out_names = proj_names;
      out_dtypes = List.map Scalar.dtype projections;
      out_row_bytes = 8 * List.length projections;
    }
  in
  let build_pipelines =
    List.mapi
      (fun i spec ->
        let tb = spec.Physical.ht_build_tref in
        let tbl, alias = trefs.(tb) in
        ignore tbl;
        let local =
          List.filter (fun f -> Scalar.trefs_used f = [ tb ]) local_filters
        in
        {
          Physical.p_name = Printf.sprintf "build %s" alias;
          p_source = Physical.Src_scan { tref = tb };
          p_scan_filters = local;
          p_probes = [];
          p_sink =
            Physical.S_build
              {
                ht = i;
                key = spec.Physical.ht_key;
                payload =
                  List.map
                    (fun (c, off) ->
                      ( off,
                        Scalar.Col
                          {
                            tref = tb;
                            col = c;
                            dtype = (fst trefs.(tb)).Table.columns.(c).Table.dtype;
                          } ))
                    spec.Physical.ht_payload;
              };
        })
      ht_specs
  in
  let driver_sink =
    if aggregating then
      Physical.S_agg
        {
          agg = 0;
          keys = group_keys;
          accs = List.map (fun a -> (a.kind, a.arg)) accs;
        }
    else Physical.S_out { out = 0; exprs = projections }
  in
  let driver_pipeline =
    {
      Physical.p_name = Printf.sprintf "scan %s" (snd trefs.(driver));
      p_source = Physical.Src_scan { tref = driver };
      p_scan_filters = driver_scan_filters;
      p_probes = probes;
      p_sink = driver_sink;
    }
  in
  let agg_scan_pipeline =
    if aggregating then
      [
        {
          Physical.p_name = "aggregate scan";
          p_source = Physical.Src_agg_scan { agg = 0 };
          p_scan_filters = (match having with Some h -> [ h ] | None -> []);
          p_probes = [];
          p_sink = Physical.S_out { out = 0; exprs = projections };
        };
      ]
    else []
  in
  {
    Physical.pl_pipelines = build_pipelines @ [ driver_pipeline ] @ agg_scan_pipeline;
    pl_trefs = trefs;
    pl_hts = Array.of_list ht_specs;
    pl_agg = agg_cfg;
    pl_out = out_cfg;
    pl_preds = Array.of_list (List.rev_map snd env.preds);
    pl_order_by = order_by;
    pl_limit = q.Ast.limit;
  }

let plan_sql catalog sql = plan catalog (Aeq_sql.Parser.parse sql)
