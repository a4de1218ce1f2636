type op_counts = {
  int_add : int;
  int_mul : int;
  int_div : int;
  fp_add : int;
  fp_mul : int;
  fp_div : int;
  math_calls : (string * int) list;
  mem_reads : (string * int) list;
  mem_writes : (string * int) list;
  compares : int;
  other : int;
}

let no_ops =
  { int_add = 0;
    int_mul = 0;
    int_div = 0;
    fp_add = 0;
    fp_mul = 0;
    fp_div = 0;
    math_calls = [];
    mem_reads = [];
    mem_writes = [];
    compares = 0;
    other = 0 }

let bump assoc key n =
  let cur = Option.value ~default:0 (List.assoc_opt key assoc) in
  (key, cur + n) :: List.remove_assoc key assoc

let total_ops o =
  o.int_add + o.int_mul + o.int_div + o.fp_add + o.fp_mul + o.fp_div
  + List.fold_left (fun a (_, n) -> a + n) 0 o.math_calls
  + List.fold_left (fun a (_, n) -> a + n) 0 o.mem_reads
  + List.fold_left (fun a (_, n) -> a + n) 0 o.mem_writes
  + o.compares + o.other

type dependence =
  | NoDep
  | ScalarRec of string * int
  | ArrayRec of string

type loop_info = {
  li_loop : Csyntax.loop;
  li_depth : int;
  li_ancestors : int list;
  li_children : int list;
  li_trip : int option;
  li_ops : op_counts;
  li_dep : dependence;
  li_has_if : bool;
}

type summary = {
  loops : loop_info list;
  buffers : (string * Csyntax.cty * int option) list;
  locals_bytes : int;
  top_ops : op_counts;
  local_arrays : (string * Csyntax.cty * int) list;
}

(* ---------- type environment ---------- *)

type tenv = (string, Csyntax.cty) Hashtbl.t

let float_ty (t : Csyntax.cty) =
  match t with
  | Csyntax.CFloat | Csyntax.CDouble
  | Csyntax.CArr ((Csyntax.CFloat | Csyntax.CDouble), _)
  | Csyntax.CPtr (Csyntax.CFloat | Csyntax.CDouble) ->
    true
  | _ -> false

let rec is_fp tenv (e : Csyntax.cexpr) =
  match e with
  | Csyntax.EFloat _ | Csyntax.EDouble _ -> true
  | Csyntax.EInt _ | Csyntax.ELong _ | Csyntax.EChar _ | Csyntax.EBool _ ->
    false
  | Csyntax.EVar v -> (
    match Hashtbl.find_opt tenv v with
    | Some t -> float_ty t
    | None -> false)
  | Csyntax.EBin (_, a, b) -> is_fp tenv a || is_fp tenv b
  | Csyntax.EUn (_, a) -> is_fp tenv a
  | Csyntax.EIndex (a, _) -> is_fp tenv a
  | Csyntax.ECall (("sqrt" | "exp" | "log" | "pow" | "fmin" | "fmax"
                   | "fabs" | "floor" | "ceil"), _) ->
    true
  | Csyntax.ECall _ -> false
  | Csyntax.ECond (_, a, b) -> is_fp tenv a || is_fp tenv b
  | Csyntax.ECast ((Csyntax.CFloat | Csyntax.CDouble), _) -> true
  | Csyntax.ECast (_, _) -> false

(* ---------- operation counting ---------- *)

let rec count_expr tenv acc (e : Csyntax.cexpr) =
  match e with
  | Csyntax.EInt _ | Csyntax.ELong _ | Csyntax.EFloat _ | Csyntax.EDouble _
  | Csyntax.EChar _ | Csyntax.EBool _ | Csyntax.EVar _ ->
    acc
  | Csyntax.EBin (op, a, b) -> (
    let acc = count_expr tenv acc a in
    let acc = count_expr tenv acc b in
    let fp = is_fp tenv a || is_fp tenv b in
    match op with
    | Csyntax.CAdd | Csyntax.CSub ->
      if fp then { acc with fp_add = acc.fp_add + 1 }
      else { acc with int_add = acc.int_add + 1 }
    | Csyntax.CMul ->
      if fp then { acc with fp_mul = acc.fp_mul + 1 }
      else { acc with int_mul = acc.int_mul + 1 }
    | Csyntax.CDiv | Csyntax.CRem ->
      if fp then { acc with fp_div = acc.fp_div + 1 }
      else { acc with int_div = acc.int_div + 1 }
    | Csyntax.CLt | Csyntax.CLe | Csyntax.CGt | Csyntax.CGe | Csyntax.CEq
    | Csyntax.CNe ->
      { acc with compares = acc.compares + 1 }
    | Csyntax.CAnd | Csyntax.COr | Csyntax.CBAnd | Csyntax.CBOr
    | Csyntax.CBXor | Csyntax.CShl | Csyntax.CShr ->
      { acc with other = acc.other + 1 })
  | Csyntax.EUn (_, a) ->
    let acc = count_expr tenv acc a in
    { acc with other = acc.other + 1 }
  | Csyntax.EIndex (arr, idx) -> (
    let acc = count_expr tenv acc idx in
    match arr with
    | Csyntax.EVar name -> { acc with mem_reads = bump acc.mem_reads name 1 }
    | _ -> count_expr tenv acc arr)
  | Csyntax.ECall (f, args) ->
    let acc = List.fold_left (count_expr tenv) acc args in
    { acc with math_calls = bump acc.math_calls f 1 }
  | Csyntax.ECond (c, a, b) ->
    let acc = count_expr tenv acc c in
    let acc = count_expr tenv acc a in
    let acc = count_expr tenv acc b in
    { acc with compares = acc.compares + 1 }
  | Csyntax.ECast (_, a) -> count_expr tenv acc a

let count_store tenv acc lv =
  match lv with
  | Csyntax.EIndex (Csyntax.EVar name, idx) ->
    let acc = count_expr tenv acc idx in
    { acc with mem_writes = bump acc.mem_writes name 1 }
  | Csyntax.EVar _ -> acc
  | _ -> count_expr tenv acc lv

(* Count operations in the direct body of a loop (or function), stopping
   at nested loops. *)
let rec count_stmts tenv acc stmts =
  List.fold_left
    (fun acc s ->
      match s with
      | Csyntax.SDecl (t, name, init) ->
        Hashtbl.replace tenv name t;
        (match init with Some e -> count_expr tenv acc e | None -> acc)
      | Csyntax.SAssign (lv, e) ->
        let acc = count_store tenv acc lv in
        count_expr tenv acc e
      | Csyntax.SIf (c, a, b) ->
        let acc = count_expr tenv acc c in
        let acc = { acc with compares = acc.compares + 1 } in
        let acc = count_stmts tenv acc a in
        count_stmts tenv acc b
      | Csyntax.SWhile (c, b) ->
        let acc = count_expr tenv acc c in
        count_stmts tenv acc b
      | Csyntax.SFor _ -> acc
      | Csyntax.SExpr e -> count_expr tenv acc e
      | Csyntax.SReturn (Some e) -> count_expr tenv acc e
      | Csyntax.SReturn None -> acc)
    acc stmts

let rec has_if stmts =
  List.exists
    (function
      | Csyntax.SIf _ -> true
      | Csyntax.SWhile (_, b) -> has_if b
      | Csyntax.SFor _ -> false
      | Csyntax.SDecl _ | Csyntax.SAssign _ | Csyntax.SExpr _
      | Csyntax.SReturn _ ->
        false)
    stmts

(* ---------- dependences ---------- *)

let rec expr_mentions v (e : Csyntax.cexpr) =
  match e with
  | Csyntax.EVar x -> String.equal x v
  | Csyntax.EBin (_, a, b) -> expr_mentions v a || expr_mentions v b
  | Csyntax.EUn (_, a) | Csyntax.ECast (_, a) -> expr_mentions v a
  | Csyntax.EIndex (a, i) -> expr_mentions v a || expr_mentions v i
  | Csyntax.ECall (_, args) -> List.exists (expr_mentions v) args
  | Csyntax.ECond (c, a, b) ->
    expr_mentions v c || expr_mentions v a || expr_mentions v b
  | Csyntax.EInt _ | Csyntax.ELong _ | Csyntax.EFloat _ | Csyntax.EDouble _
  | Csyntax.EChar _ | Csyntax.EBool _ ->
    false

let rec fp_chain_len tenv (e : Csyntax.cexpr) =
  (* Length of the longest chain of floating operations in [e] — a crude
     stand-in for the latency of the recurrence. *)
  match e with
  | Csyntax.EBin (op, a, b) ->
    let inner = max (fp_chain_len tenv a) (fp_chain_len tenv b) in
    let own =
      if is_fp tenv a || is_fp tenv b then
        match op with
        | Csyntax.CAdd | Csyntax.CSub | Csyntax.CMul -> 1
        | Csyntax.CDiv | Csyntax.CRem -> 3
        | _ -> 0
      else 0
    in
    inner + own
  | Csyntax.EUn (_, a) | Csyntax.ECast (_, a) -> fp_chain_len tenv a
  | Csyntax.EIndex (a, i) -> max (fp_chain_len tenv a) (fp_chain_len tenv i)
  | Csyntax.ECall (("exp" | "log" | "pow"), args) ->
    4 + List.fold_left (fun m a -> max m (fp_chain_len tenv a)) 0 args
  | Csyntax.ECall (("sqrt"), args) ->
    3 + List.fold_left (fun m a -> max m (fp_chain_len tenv a)) 0 args
  | Csyntax.ECall (_, args) ->
    List.fold_left (fun m a -> max m (fp_chain_len tenv a)) 0 args
  | Csyntax.ECond (c, a, b) ->
    max (fp_chain_len tenv c) (max (fp_chain_len tenv a) (fp_chain_len tenv b))
  | Csyntax.EInt _ | Csyntax.ELong _ | Csyntax.EFloat _ | Csyntax.EDouble _
  | Csyntax.EChar _ | Csyntax.EBool _ | Csyntax.EVar _ ->
    0

type affine = { aff_terms : (string * int) list; aff_const : int }

let aff_const n = { aff_terms = []; aff_const = n }

let aff_add a b =
  let terms =
    List.fold_left
      (fun acc (v, c) ->
        let cur = Option.value ~default:0 (List.assoc_opt v acc) in
        (v, cur + c) :: List.remove_assoc v acc)
      a.aff_terms b.aff_terms
  in
  { aff_terms = List.filter (fun (_, c) -> c <> 0) terms;
    aff_const = a.aff_const + b.aff_const }

let aff_scale k a =
  { aff_terms =
      List.filter_map
        (fun (v, c) -> if k * c = 0 then None else Some (v, k * c))
        a.aff_terms;
    aff_const = k * a.aff_const }

let rec affine_of (e : Csyntax.cexpr) =
  match e with
  | Csyntax.EInt n -> Some (aff_const n)
  | Csyntax.EChar c -> Some (aff_const (Char.code c))
  | Csyntax.EBool b -> Some (aff_const (if b then 1 else 0))
  | Csyntax.EVar v -> Some { aff_terms = [ (v, 1) ]; aff_const = 0 }
  | Csyntax.EBin (Csyntax.CAdd, a, b) -> (
    match (affine_of a, affine_of b) with
    | Some x, Some y -> Some (aff_add x y)
    | _ -> None)
  | Csyntax.EBin (Csyntax.CSub, a, b) -> (
    match (affine_of a, affine_of b) with
    | Some x, Some y -> Some (aff_add x (aff_scale (-1) y))
    | _ -> None)
  | Csyntax.EBin (Csyntax.CMul, a, b) -> (
    match (affine_of a, affine_of b) with
    | Some x, Some y when x.aff_terms = [] -> Some (aff_scale x.aff_const y)
    | Some x, Some y when y.aff_terms = [] -> Some (aff_scale y.aff_const x)
    | _ -> None)
  | Csyntax.ECast (_, a) -> affine_of a
  | Csyntax.EUn (Csyntax.CNeg, a) ->
    Option.map (aff_scale (-1)) (affine_of a)
  | _ -> None

let aff_norm a =
  { a with aff_terms = List.sort compare a.aff_terms }

let affine_equal a b =
  let a = aff_norm a and b = aff_norm b in
  a.aff_terms = b.aff_terms && a.aff_const = b.aff_const

let affine_diff a b = aff_norm (aff_add a (aff_scale (-1) b))

(* Detect a loop-carried dependence in the direct body of [loop]:
   - a scalar declared outside the loop, assigned from an expression
     mentioning itself (reduction/accumulation);
   - an array that is both written and read with non-identical indices
     that involve an outer or this loop's variable. *)
let detect_dependence tenv (loop : Csyntax.loop) =
  let declared = Hashtbl.create 8 in
  let scalar_rec = ref None in
  let array_writes = ref [] in
  let array_reads = ref [] in
  let rec scan stmts =
    List.iter
      (fun s ->
        match s with
        | Csyntax.SDecl (_, name, _) -> Hashtbl.replace declared name ()
        | Csyntax.SAssign (Csyntax.EVar v, e) ->
          collect_reads e;
          if (not (Hashtbl.mem declared v)) && expr_mentions v e then begin
            match !scalar_rec with
            | Some _ -> ()
            | None -> scalar_rec := Some (v, max 1 (fp_chain_len tenv e))
          end
        | Csyntax.SAssign (Csyntax.EIndex (Csyntax.EVar a, idx), e) ->
          array_writes := (a, idx) :: !array_writes;
          collect_reads e
        | Csyntax.SAssign (_, e) -> collect_reads e
        | Csyntax.SIf (c, x, y) ->
          collect_reads c;
          scan x;
          scan y
        | Csyntax.SWhile (c, b) ->
          collect_reads c;
          scan b
        | Csyntax.SFor inner -> scan inner.Csyntax.lbody
        | Csyntax.SExpr e -> collect_reads e
        | Csyntax.SReturn (Some e) -> collect_reads e
        | Csyntax.SReturn None -> ())
      stmts
  and collect_reads e =
    match e with
    | Csyntax.EIndex (Csyntax.EVar a, idx) ->
      array_reads := (a, idx) :: !array_reads;
      collect_reads idx
    | Csyntax.EBin (_, x, y) ->
      collect_reads x;
      collect_reads y
    | Csyntax.EUn (_, x) | Csyntax.ECast (_, x) -> collect_reads x
    | Csyntax.EIndex (x, y) ->
      collect_reads x;
      collect_reads y
    | Csyntax.ECall (_, args) -> List.iter collect_reads args
    | Csyntax.ECond (c, x, y) ->
      collect_reads c;
      collect_reads x;
      collect_reads y
    | Csyntax.EInt _ | Csyntax.ELong _ | Csyntax.EFloat _ | Csyntax.EDouble _
    | Csyntax.EChar _ | Csyntax.EBool _ | Csyntax.EVar _ ->
      ()
  in
  scan loop.Csyntax.lbody;
  match !scalar_rec with
  | Some (v, chain) -> ScalarRec (v, chain)
  | None ->
    (* Decide whether a (write index, read index) pair carries a value
       across iterations of this loop. With affine indices the test is
       exact: a constant non-zero difference whose accesses move with
       the loop variable is a shifted dependence; an identical index
       that ignores the loop variable is an accumulator cell; identical
       indices that advance with the loop are iteration-private. *)
    let pair_carries widx ridx =
      match (affine_of widx, affine_of ridx) with
      | Some wa, Some ra ->
        let moves a = List.mem_assoc loop.Csyntax.lvar a.aff_terms in
        if affine_equal wa ra then not (moves wa)
        else begin
          let d = affine_diff wa ra in
          match d.aff_terms with
          | [] -> d.aff_const <> 0 && (moves wa || moves ra)
          | _ ->
            (* Different non-constant access patterns: assume carried
               when either side moves with this loop. *)
            moves wa || moves ra
        end
      | _ ->
        (* Non-affine index: fall back to the conservative syntactic
           test. *)
        (widx <> ridx
        && (expr_mentions loop.Csyntax.lvar ridx
           || expr_mentions loop.Csyntax.lvar widx))
        || (widx = ridx && not (expr_mentions loop.Csyntax.lvar widx))
    in
    let carried =
      List.find_opt
        (fun (a, widx) ->
          List.exists
            (fun (a', ridx) -> String.equal a a' && pair_carries widx ridx)
            !array_reads)
        !array_writes
    in
    (match carried with
    | Some (a, _) -> ArrayRec a
    | None -> NoDep)

(* ---------- driver ---------- *)

let trip_count (l : Csyntax.loop) =
  match (Csyntax.const_int_of l.Csyntax.llo, Csyntax.const_int_of l.Csyntax.lhi) with
  | Some lo, Some hi when l.Csyntax.lstep > 0 ->
    Some (max 0 ((hi - lo + l.Csyntax.lstep - 1) / l.Csyntax.lstep))
  | _, _ -> None

let rec local_array_bytes stmts =
  List.fold_left
    (fun acc s ->
      match s with
      | Csyntax.SDecl ((Csyntax.CArr _ as t), _, _) ->
        let rec bytes = function
          | Csyntax.CArr (inner, n) -> n * bytes inner
          | scalar -> max 1 (Csyntax.ty_bits scalar / 8)
        in
        acc + bytes t
      | Csyntax.SIf (_, a, b) -> acc + local_array_bytes a + local_array_bytes b
      | Csyntax.SWhile (_, b) -> acc + local_array_bytes b
      | Csyntax.SFor l -> acc + local_array_bytes l.Csyntax.lbody
      | Csyntax.SDecl _ | Csyntax.SAssign _ | Csyntax.SExpr _
      | Csyntax.SReturn _ ->
        acc)
    0 stmts

let analyze (f : Csyntax.cfunc) : summary =
  let tenv : tenv = Hashtbl.create 32 in
  List.iter
    (fun (p : Csyntax.cparam) -> Hashtbl.replace tenv p.Csyntax.cpname p.Csyntax.cpty)
    f.Csyntax.cfparams;
  (* Populate declarations everywhere first so expression typing works
     regardless of traversal order. *)
  let rec predeclare stmts =
    List.iter
      (function
        | Csyntax.SDecl (t, name, _) -> Hashtbl.replace tenv name t
        | Csyntax.SIf (_, a, b) ->
          predeclare a;
          predeclare b
        | Csyntax.SWhile (_, b) -> predeclare b
        | Csyntax.SFor l ->
          Hashtbl.replace tenv l.Csyntax.lvar Csyntax.CInt;
          predeclare l.Csyntax.lbody
        | Csyntax.SAssign _ | Csyntax.SExpr _ | Csyntax.SReturn _ -> ())
      stmts
  in
  predeclare f.Csyntax.cfbody;
  let loops = ref [] in
  Csyntax.iter_loops
    (fun ancestors l ->
      let children =
        List.filter_map
          (function Csyntax.SFor c -> Some c.Csyntax.lid | _ -> None)
          l.Csyntax.lbody
      in
      (* Also catch loops nested under ifs in the direct body. *)
      let rec if_children stmts =
        List.concat_map
          (function
            | Csyntax.SIf (_, a, b) -> if_children a @ if_children b
            | Csyntax.SFor c -> [ c.Csyntax.lid ]
            | _ -> [])
          stmts
      in
      let children =
        children
        @ List.filter
            (fun id -> not (List.mem id children))
            (if_children
               (List.filter
                  (function Csyntax.SFor _ -> false | _ -> true)
                  l.Csyntax.lbody))
      in
      let info =
        { li_loop = l;
          li_depth = List.length ancestors;
          li_ancestors = ancestors;
          li_children = children;
          li_trip = trip_count l;
          li_ops = count_stmts tenv no_ops l.Csyntax.lbody;
          li_dep = detect_dependence tenv l;
          li_has_if = has_if l.Csyntax.lbody }
      in
      loops := info :: !loops)
    f.Csyntax.cfbody;
  let buffers =
    List.filter_map
      (fun (p : Csyntax.cparam) ->
        match p.Csyntax.cpty with
        | Csyntax.CPtr _ -> Some (p.Csyntax.cpname, p.Csyntax.cpty, p.Csyntax.cpbitwidth)
        | _ -> None)
      f.Csyntax.cfparams
  in
  let rec collect_arrays stmts =
    List.concat_map
      (function
        | Csyntax.SDecl (Csyntax.CArr (t, n), name, _) -> [ (name, t, n) ]
        | Csyntax.SIf (_, a, b) -> collect_arrays a @ collect_arrays b
        | Csyntax.SWhile (_, b) -> collect_arrays b
        | Csyntax.SFor l -> collect_arrays l.Csyntax.lbody
        | Csyntax.SDecl _ | Csyntax.SAssign _ | Csyntax.SExpr _
        | Csyntax.SReturn _ ->
          [])
      stmts
  in
  { loops = List.rev !loops;
    buffers;
    locals_bytes = local_array_bytes f.Csyntax.cfbody;
    top_ops = count_stmts tenv no_ops f.Csyntax.cfbody;
    local_arrays = collect_arrays f.Csyntax.cfbody }

let find_loop s id =
  List.find_opt (fun li -> li.li_loop.Csyntax.lid = id) s.loops

let loop_ids s = List.map (fun li -> li.li_loop.Csyntax.lid) s.loops

let trip_or default li = Option.value ~default li.li_trip
