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

(* ---------- scope ---------- *)

(* The declarations visible at one point of a function, innermost
   first, under the block scoping of cscope.mli: a declaration is
   visible to the rest of its statement list, an [if] branch or a loop
   body is a block of its own, and a [for (int v ...)] counter is
   declared for the loop's bound and body. A name no declaration binds
   is not floating point. *)
type scope = (string * Csyntax.cty) list

let float_ty (t : Csyntax.cty) =
  match t with
  | Csyntax.CFloat | Csyntax.CDouble
  | Csyntax.CArr ((Csyntax.CFloat | Csyntax.CDouble), _)
  | Csyntax.CPtr (Csyntax.CFloat | Csyntax.CDouble) ->
    true
  | _ -> false

(* The scope of a loop's body. *)
let enter (scope : scope) (l : Csyntax.loop) : scope =
  if l.Csyntax.ldecl then (l.Csyntax.lvar, l.Csyntax.lvty) :: scope else scope

let rec is_fp scope (e : Csyntax.cexpr) =
  match e with
  | Csyntax.EFloat _ | Csyntax.EDouble _ -> true
  | Csyntax.EInt _ | Csyntax.ELong _ | Csyntax.EChar _ | Csyntax.EBool _ ->
    false
  | Csyntax.EVar v -> (
    match List.assoc_opt v scope with
    | Some t -> float_ty t
    | None -> false)
  | Csyntax.EBin (_, a, b) -> is_fp scope a || is_fp scope b
  | Csyntax.EUn (_, a) -> is_fp scope a
  | Csyntax.EIndex (a, _) -> is_fp scope a
  | Csyntax.ECall (("sqrt" | "exp" | "log" | "pow" | "fmin" | "fmax"
                   | "fabs" | "floor" | "ceil"), _) ->
    true
  | Csyntax.ECall _ -> false
  | Csyntax.ECond (_, a, b) -> is_fp scope a || is_fp scope b
  | Csyntax.ECast ((Csyntax.CFloat | Csyntax.CDouble), _) -> true
  | Csyntax.ECast (_, _) -> false

(* ---------- operation counting ---------- *)

let rec count_expr scope acc (e : Csyntax.cexpr) =
  match e with
  | Csyntax.EInt _ | Csyntax.ELong _ | Csyntax.EFloat _ | Csyntax.EDouble _
  | Csyntax.EChar _ | Csyntax.EBool _ | Csyntax.EVar _ ->
    acc
  | Csyntax.EBin (op, a, b) -> (
    let acc = count_expr scope acc a in
    let acc = count_expr scope acc b in
    let fp = is_fp scope a || is_fp scope b in
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
    let acc = count_expr scope acc a in
    { acc with other = acc.other + 1 }
  | Csyntax.EIndex (arr, idx) -> (
    let acc = count_expr scope acc idx in
    match arr with
    | Csyntax.EVar name -> { acc with mem_reads = bump acc.mem_reads name 1 }
    | _ -> count_expr scope acc arr)
  | Csyntax.ECall (f, args) ->
    let acc = List.fold_left (count_expr scope) acc args in
    { acc with math_calls = bump acc.math_calls f 1 }
  | Csyntax.ECond (c, a, b) ->
    let acc = count_expr scope acc c in
    let acc = count_expr scope acc a in
    let acc = count_expr scope acc b in
    { acc with compares = acc.compares + 1 }
  | Csyntax.ECast (_, a) -> count_expr scope acc a

let count_store scope acc lv =
  match lv with
  | Csyntax.EIndex (Csyntax.EVar name, idx) ->
    let acc = count_expr scope acc idx in
    { acc with mem_writes = bump acc.mem_writes name 1 }
  | Csyntax.EVar _ -> acc
  | _ -> count_expr scope acc lv

(* Count operations in the direct body of a loop (or function), stopping
   at nested loops. *)
let rec count_stmts scope acc = function
  | [] -> acc
  | Csyntax.SDecl (t, name, init) :: rest ->
    let acc = Option.fold ~none:acc ~some:(count_expr scope acc) init in
    count_stmts ((name, t) :: scope) acc rest
  | s :: rest ->
    let acc =
      match s with
      | Csyntax.SAssign (lv, e) ->
        let acc = count_store scope acc lv in
        count_expr scope acc e
      | Csyntax.SIf (c, a, b) ->
        let acc = count_expr scope acc c in
        let acc = { acc with compares = acc.compares + 1 } in
        let acc = count_stmts scope acc a in
        count_stmts scope acc b
      | Csyntax.SWhile (c, b) ->
        let acc = count_expr scope acc c in
        count_stmts scope acc b
      | Csyntax.SExpr e | Csyntax.SReturn (Some e) -> count_expr scope acc e
      | Csyntax.SDecl _ | Csyntax.SFor _ | Csyntax.SReturn None -> acc
    in
    count_stmts scope acc rest

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

let rec fp_chain_len scope (e : Csyntax.cexpr) =
  (* Length of the longest chain of floating operations in [e] — a crude
     stand-in for the latency of the recurrence. *)
  match e with
  | Csyntax.EBin (op, a, b) ->
    let inner = max (fp_chain_len scope a) (fp_chain_len scope b) in
    let own =
      if is_fp scope a || is_fp scope b then
        match op with
        | Csyntax.CAdd | Csyntax.CSub | Csyntax.CMul -> 1
        | Csyntax.CDiv | Csyntax.CRem -> 3
        | _ -> 0
      else 0
    in
    inner + own
  | Csyntax.EUn (_, a) | Csyntax.ECast (_, a) -> fp_chain_len scope a
  | Csyntax.EIndex (a, i) -> max (fp_chain_len scope a) (fp_chain_len scope i)
  | Csyntax.ECall (("exp" | "log" | "pow"), args) ->
    4 + List.fold_left (fun m a -> max m (fp_chain_len scope a)) 0 args
  | Csyntax.ECall (("sqrt"), args) ->
    3 + List.fold_left (fun m a -> max m (fp_chain_len scope a)) 0 args
  | Csyntax.ECall (_, args) ->
    List.fold_left (fun m a -> max m (fp_chain_len scope a)) 0 args
  | Csyntax.ECond (c, a, b) ->
    max (fp_chain_len scope c)
      (max (fp_chain_len scope a) (fp_chain_len scope b))
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

(* Detect a loop-carried dependence in the body of [loop], nested loops
   included, where [entry] is the scope of the body (the loop's own
   counter is not declared in the loop):
   - a scalar not declared in the loop, assigned from an expression
     mentioning itself (reduction/accumulation); a name counts as
     declared in the loop only inside the block that declares it;
   - an array that is both written and read with non-identical indices
     that involve an outer or this loop's variable; the bounds of a
     nested loop are read on every iteration of this loop. *)
let detect_dependence entry (loop : Csyntax.loop) =
  let scalar_rec = ref None in
  let array_writes = ref [] in
  let array_reads = ref [] in
  (* The declarations in the loop are the bindings [scope] holds in
     front of [entry]. *)
  let rec declared scope v =
    scope != entry
    &&
    match scope with
    | (n, _) :: rest -> String.equal n v || declared rest v
    | [] -> false
  in
  let rec scan scope = function
    | [] -> ()
    | Csyntax.SDecl (t, name, init) :: rest ->
      Option.iter collect_reads init;
      scan ((name, t) :: scope) rest
    | s :: rest ->
      (match s with
      | Csyntax.SAssign (Csyntax.EVar v, e) ->
        collect_reads e;
        if Option.is_none !scalar_rec && (not (declared scope v))
           && expr_mentions v e
        then scalar_rec := Some (v, max 1 (fp_chain_len scope e))
      | Csyntax.SAssign (Csyntax.EIndex (Csyntax.EVar a, idx), e) ->
        array_writes := (a, idx) :: !array_writes;
        collect_reads e
      | Csyntax.SAssign (_, e) | Csyntax.SExpr e | Csyntax.SReturn (Some e) ->
        collect_reads e
      | Csyntax.SIf (c, x, y) ->
        collect_reads c;
        scan scope x;
        scan scope y
      | Csyntax.SWhile (c, b) ->
        collect_reads c;
        scan scope b
      | Csyntax.SFor inner ->
        collect_reads inner.Csyntax.llo;
        collect_reads inner.Csyntax.lhi;
        scan (enter scope inner) inner.Csyntax.lbody
      | Csyntax.SDecl _ | Csyntax.SReturn None -> ());
      scan scope rest
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
  scan entry loop.Csyntax.lbody;
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

(* Bytes a value of type [t] occupies. *)
let rec storage_bytes = function
  | Csyntax.CArr (t, n) -> n * storage_bytes t
  | scalar -> max 1 (Csyntax.ty_bits scalar / 8)

(* The loops nested directly in [l]'s body, then those under its
   [if]s. *)
let children (l : Csyntax.loop) =
  let rec under_ifs = function
    | Csyntax.SIf (_, a, b) ->
      List.concat_map under_ifs a @ List.concat_map under_ifs b
    | Csyntax.SFor c -> [ c.Csyntax.lid ]
    | _ -> []
  in
  List.filter_map
    (function Csyntax.SFor c -> Some c.Csyntax.lid | _ -> None)
    l.Csyntax.lbody
  @ List.concat_map
      (function Csyntax.SIf _ as s -> under_ifs s | _ -> [])
      l.Csyntax.lbody

let analyze (f : Csyntax.cfunc) : summary =
  let loops = ref [] and arrays = ref [] in
  (* One walk in statement order: [scope] is the scope at each point,
     [ancestors] the enclosing loop ids, outermost first. A loop is
     recorded before the loops nested in it. *)
  let rec walk scope ancestors = function
    | [] -> ()
    | Csyntax.SDecl (t, name, _) :: rest ->
      (match t with
      | Csyntax.CArr (elt, n) -> arrays := (name, elt, n) :: !arrays
      | _ -> ());
      walk ((name, t) :: scope) ancestors rest
    | s :: rest ->
      (match s with
      | Csyntax.SFor l ->
        let body = enter scope l in
        loops :=
          { li_loop = l;
            li_depth = List.length ancestors;
            li_ancestors = ancestors;
            li_children = children l;
            li_trip = trip_count l;
            li_ops = count_stmts body no_ops l.Csyntax.lbody;
            li_dep = detect_dependence body l;
            li_has_if = has_if l.Csyntax.lbody }
          :: !loops;
        walk body (ancestors @ [ l.Csyntax.lid ]) l.Csyntax.lbody
      | Csyntax.SIf (_, a, b) ->
        walk scope ancestors a;
        walk scope ancestors b
      | Csyntax.SWhile (_, b) -> walk scope ancestors b
      | Csyntax.SDecl _ | Csyntax.SAssign _ | Csyntax.SExpr _
      | Csyntax.SReturn _ ->
        ());
      walk scope ancestors rest
  in
  let params =
    List.fold_left
      (fun scope (p : Csyntax.cparam) ->
        (p.Csyntax.cpname, p.Csyntax.cpty) :: scope)
      [] f.Csyntax.cfparams
  in
  walk params [] f.Csyntax.cfbody;
  let local_arrays = List.rev !arrays in
  { loops = List.rev !loops;
    buffers =
      List.filter_map
        (fun (p : Csyntax.cparam) ->
          match p.Csyntax.cpty with
          | Csyntax.CPtr _ ->
            Some (p.Csyntax.cpname, p.Csyntax.cpty, p.Csyntax.cpbitwidth)
          | _ -> None)
        f.Csyntax.cfparams;
    locals_bytes =
      List.fold_left
        (fun acc (_, t, n) -> acc + (n * storage_bytes t))
        0 local_arrays;
    top_ops = count_stmts params no_ops f.Csyntax.cfbody;
    local_arrays }

let find_loop s id =
  List.find_opt (fun li -> li.li_loop.Csyntax.lid = id) s.loops

let loop_ids s = List.map (fun li -> li.li_loop.Csyntax.lid) s.loops

let trip_or default li = Option.value ~default li.li_trip
