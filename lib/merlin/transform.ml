module Csyntax = S2fa_hlsc.Csyntax
module Canalysis = S2fa_hlsc.Canalysis
open Csyntax

type loop_cfg = {
  lc_tile : int;
  lc_parallel : int;
  lc_pipeline : pipeline_mode;
}

let default_loop_cfg = { lc_tile = 1; lc_parallel = 1; lc_pipeline = PipeOff }

type config = {
  cfg_loops : (int * loop_cfg) list;
  cfg_bitwidths : (string * int) list;
}

let empty_config = { cfg_loops = []; cfg_bitwidths = [] }

let loop_cfg_of cfg id =
  Option.value ~default:default_loop_cfg (List.assoc_opt id cfg.cfg_loops)

let pp_config ppf cfg =
  let pipe = function
    | PipeOn -> "on"
    | PipeOff -> "off"
    | PipeFlatten -> "flatten"
  in
  Format.fprintf ppf "{";
  List.iter
    (fun (id, lc) ->
      Format.fprintf ppf " L%d:(tile=%d,par=%d,pipe=%s)" id lc.lc_tile
        lc.lc_parallel (pipe lc.lc_pipeline))
    cfg.cfg_loops;
  List.iter
    (fun (b, w) -> Format.fprintf ppf " %s:bw=%d" b w)
    cfg.cfg_bitwidths;
  Format.fprintf ppf " }"

exception Transform_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Transform_error m)) fmt

(* ---------- expression substitution ---------- *)

let rec subst_expr v repl e =
  match e with
  | EVar x when String.equal x v -> repl
  | EVar _ | EInt _ | ELong _ | EFloat _ | EDouble _ | EChar _ | EBool _ -> e
  | EBin (op, a, b) -> EBin (op, subst_expr v repl a, subst_expr v repl b)
  | EUn (op, a) -> EUn (op, subst_expr v repl a)
  | EIndex (a, i) -> EIndex (subst_expr v repl a, subst_expr v repl i)
  | ECall (f, args) -> ECall (f, List.map (subst_expr v repl) args)
  | ECond (c, a, b) ->
    ECond (subst_expr v repl c, subst_expr v repl a, subst_expr v repl b)
  | ECast (t, a) -> ECast (t, subst_expr v repl a)

let rec expr_uses v = function
  | EVar x -> String.equal x v
  | EInt _ | ELong _ | EFloat _ | EDouble _ | EChar _ | EBool _ -> false
  | EBin (_, a, b) -> expr_uses v a || expr_uses v b
  | EUn (_, a) | ECast (_, a) -> expr_uses v a
  | EIndex (a, i) -> expr_uses v a || expr_uses v i
  | ECall (_, args) -> List.exists (expr_uses v) args
  | ECond (c, a, b) -> expr_uses v c || expr_uses v a || expr_uses v b

let rec stmt_uses v = function
  | SDecl (_, _, i) -> Option.fold ~none:false ~some:(expr_uses v) i
  | SAssign (lv, e) -> expr_uses v lv || expr_uses v e
  | SIf (c, a, b) ->
    expr_uses v c || List.exists (stmt_uses v) a
    || List.exists (stmt_uses v) b
  | SWhile (c, b) -> expr_uses v c || List.exists (stmt_uses v) b
  | SFor l ->
    expr_uses v l.llo || expr_uses v l.lhi
    || List.exists (stmt_uses v) l.lbody
  | SExpr e -> expr_uses v e
  | SReturn e -> Option.fold ~none:false ~some:(expr_uses v) e

(* Does the statement introduce a new binding for [v] — a declaration, or
   a nested counted loop reusing the name? *)
let rec stmt_rebinds v = function
  | SDecl (_, n, _) -> String.equal n v
  | SFor l -> String.equal l.lvar v || List.exists (stmt_rebinds v) l.lbody
  | SIf (_, a, b) ->
    List.exists (stmt_rebinds v) a || List.exists (stmt_rebinds v) b
  | SWhile (_, b) -> List.exists (stmt_rebinds v) b
  | SAssign _ | SExpr _ | SReturn _ -> false

(* Does the statement assign the variable [v] in scope where it stands?
   In a statement list, a declaration of [v] ends the search (what
   follows assigns the new variable). A loop counting with [v] assigns
   it unless it declares it, and then its body's [v] is its own. *)
let rec stmt_writes v = function
  | SAssign (EVar x, _) -> String.equal x v
  | SAssign (_, _) | SDecl _ | SExpr _ | SReturn _ -> false
  | SIf (_, a, b) -> stmts_write v a || stmts_write v b
  | SWhile (_, b) -> stmts_write v b
  | SFor l ->
    if String.equal l.lvar v then not l.ldecl else stmts_write v l.lbody

and stmts_write v = function
  | [] -> false
  | SDecl (_, n, _) :: _ when String.equal n v -> false
  | s :: rest -> stmt_writes v s || stmts_write v rest

(* Capture-avoiding substitution of the induction variable [v] by [repl]
   in an unrolled body copy.

   The generated C (and its interpreter) has no block scoping: a
   declaration of [v] inside the loop body shadows the counter for every
   later read, and an assignment to [v] writes the counter itself. The
   old blind traversal substituted under both — rewriting reads that
   belong to the redeclaration, and even turning assignment *lvalues*
   into non-lvalue expressions — producing wrong code. Now:

   - a body that never rebinds or writes [v] substitutes everywhere,
     with scalar lvalue names left alone (only index expressions inside
     an lvalue mention the induction variable);
   - a top-level declaration of [v] preceded by no use of [v] ends the
     substitution at that point: everything after it reads the
     redeclaration, not the counter;
   - any other shape — a write to [v], a redeclaration nested under
     control flow, or one evaluated after [v] has been read — cannot be
     unrolled by substitution and is rejected with {!Transform_error}. *)
let subst_stmts v repl stmts =
  List.iter
    (fun s ->
      if stmt_writes v s then
        err "cannot unroll: loop body writes its induction variable %s" v)
    stmts;
  let subst_lv lv =
    match lv with EVar _ -> lv | _ -> subst_expr v repl lv
  in
  let rec subst_stmt = function
    | SDecl (t, n, i) -> SDecl (t, n, Option.map (subst_expr v repl) i)
    | SAssign (lv, e) -> SAssign (subst_lv lv, subst_expr v repl e)
    | SIf (c, a, b) ->
      SIf (subst_expr v repl c, List.map subst_stmt a, List.map subst_stmt b)
    | SWhile (c, b) -> SWhile (subst_expr v repl c, List.map subst_stmt b)
    | SFor l ->
      SFor
        { l with
          llo = subst_expr v repl l.llo;
          lhi = subst_expr v repl l.lhi;
          lbody = List.map subst_stmt l.lbody }
    | SExpr e -> SExpr (subst_expr v repl e)
    | SReturn e -> SReturn (Option.map (subst_expr v repl) e)
  in
  let rec go pre_use = function
    | [] -> []
    | SDecl (t, n, i) :: rest when String.equal n v ->
      if pre_use || Option.fold ~none:false ~some:(expr_uses v) i then
        err
          "cannot unroll: induction variable %s is redeclared after a use"
          v
      else
        (* Shadowed from the declaration on: leave the tail untouched. *)
        SDecl (t, n, i) :: rest
    | s :: rest ->
      if stmt_rebinds v s then
        err
          "cannot unroll: induction variable %s is redeclared in a nested \
           scope" v
      else subst_stmt s :: go (pre_use || stmt_uses v s) rest
  in
  go false stmts

(* ---------- fresh names ---------- *)

(* Is [n] a variable of [f]: a parameter, or a name its body declares,
   counts with or reads? *)
let taken (f : cfunc) n =
  List.exists (fun (p : cparam) -> String.equal p.cpname n) f.cfparams
  || List.exists (fun s -> stmt_uses n s || stmt_rebinds n s) f.cfbody

(* A name for a variable a rewrite introduces: [base] when [taken base]
   is false, else the first free [base1], [base2], ... *)
let fresh taken base =
  let rec go k =
    let n = base ^ string_of_int k in
    if taken n then go (k + 1) else n
  in
  if taken base then go 1 else base

(* ---------- tiling ---------- *)

let tile_refusal (l : loop) =
  if l.lstep <> 1 then
    Some (Printf.sprintf "tiling a loop with step %d" l.lstep)
  else if stmts_write l.lvar l.lbody then
    Some
      (Printf.sprintf
         "tiling loop '%s' whose body writes the induction variable" l.lvar)
  else if not l.ldecl then
    Some
      (Printf.sprintf
         "tiling loop '%s' whose counter is declared outside the loop: its \
          exit value is observable and tiling would change it"
         l.lvar)
  else None

(* Tile loop [l] by factor [t]:
     for (v = lo; v < hi; v++) body
   becomes
     for (v_t = lo; v_t < hi; v_t += t)          <- keeps the original id
       #pragma parallel factor=p (inner)
       for (v_i = 0; v_i < t; v_i++) {            <- id [inner_id]
         int v = v_t + v_i; if (v < hi) body
       }
   [v_t] and [v_i] are fresh in [f], the function before any rewrite.
   The caller has checked {!tile_refusal} and attaches pragmas. *)
let tile_loop f ~inner_id (l : loop) ~tile ~inner_pragmas ~outer_pragmas =
  let vt = fresh (taken f) (l.lvar ^ "_t") in
  let vi = fresh (taken f) (l.lvar ^ "_i") in
  let body =
    SAssign (EVar l.lvar, EBin (CAdd, EVar vt, EVar vi))
    :: [ SIf (EBin (CLt, EVar l.lvar, l.lhi), l.lbody, []) ]
  in
  let body =
    (* The reconstructed induction variable keeps its declared C type: a
       long-counted loop must not be narrowed to int by tiling. *)
    SDecl (l.lvty, l.lvar, None) :: body
  in
  let inner =
    { lid = inner_id;
      lvar = vi;
      lvty = CInt;
      ldecl = true;
      llo = EInt 0;
      lhi = EInt tile;
      lstep = 1;
      lbody = body;
      lpragmas = inner_pragmas }
  in
  { l with
    lvar = vt;
    lstep = tile;
    lbody = [ SFor inner ];
    lpragmas = outer_pragmas }

(* ---------- symbolic self-check (debug-assert mode) ---------- *)

(* When enabled, every structural rewrite is re-verified against its
   input by the bounded symbolic evaluator before being returned. Scalar
   int parameters are pinned to 1 and buffers given a small default
   capacity so loop bounds fold; [Unknown] verdicts pass (a backstop, not
   a gate), a refutation aborts the transform with its witness. *)
let self_check =
  ref
    (match Sys.getenv_opt "S2FA_TRANSFORM_VERIFY" with
    | Some ("1" | "true" | "on") -> true
    | _ -> false)

let set_self_check b = self_check := b

let self_check_enabled () = !self_check

let backstop_budget =
  { S2fa_sym.Sym.bg_steps = 500_000; bg_nodes = 300_000; bg_trip = 1024 }

let self_verify orig result =
  if !self_check then
    List.iter
      (fun (f : cfunc) ->
        match Csyntax.find_cfunc orig f.cfname with
        | Some f0
          when Csyntax.to_string { cfuncs = [ f0 ] }
               <> Csyntax.to_string { cfuncs = [ f ] } ->
          let caps =
            List.filter_map
              (fun (p : cparam) ->
                match p.cpty with
                | CPtr _ -> Some (p.cpname, 64)
                | _ -> None)
              f.cfparams
          in
          let bindings =
            List.filter_map
              (fun (p : cparam) ->
                match p.cpty with
                | CInt | CChar | CBool ->
                  Some (p.cpname, S2fa_hlsc.Cinterp.VI 1)
                | CLong -> Some (p.cpname, S2fa_hlsc.Cinterp.VL 1L)
                | _ -> None)
              f.cfparams
          in
          (match
             S2fa_sym.Sym.equiv ~budget:backstop_budget ~bindings ~samples:16
               ~caps orig result f.cfname
           with
          | S2fa_sym.Sym.Refuted cx ->
            err "transform self-check refuted on %s: %s" f.cfname
              cx.S2fa_sym.Sym.cx_detail
          | S2fa_sym.Sym.Proved _ | S2fa_sym.Sym.Unknown _ -> ())
        | _ -> ())
      result.cfuncs;
  result

(* ---------- applying a config ---------- *)

let check_factors cfg =
  List.iter
    (fun (id, lc) ->
      if lc.lc_tile < 1 then err "loop %d: tile factor %d" id lc.lc_tile;
      if lc.lc_parallel < 1 then
        err "loop %d: parallel factor %d" id lc.lc_parallel)
    cfg.cfg_loops

(* The pragmas a design puts on an untiled loop, and on the outer and
   inner loop of a tiled one. *)
let untiled_pragmas lc = [ Parallel lc.lc_parallel; Pipeline lc.lc_pipeline ]
let outer_pragmas lc = [ Tile lc.lc_tile; Pipeline lc.lc_pipeline ]
let inner_pragmas lc = [ Parallel lc.lc_parallel ]

let bitwidth cfg name ty declared =
  match (ty, List.assoc_opt name cfg.cfg_bitwidths) with
  | CPtr _, Some bw -> Some bw
  | _ -> declared

let apply cfg prog =
  S2fa_obs.Obs.span "merlin.apply" @@ fun () ->
  S2fa_obs.Obs.count "transforms.applied";
  check_factors cfg;
  let rewrite_loop f (l : loop) =
    match List.assoc_opt l.lid cfg.cfg_loops with
    | None -> l
    | Some lc when lc.lc_tile > 1 ->
      Option.iter (fun m -> raise (Transform_error m)) (tile_refusal l);
      tile_loop f ~inner_id:(fresh_loop_id ()) l
        ~tile:lc.lc_tile ~inner_pragmas:(inner_pragmas lc)
        ~outer_pragmas:(outer_pragmas lc)
    | Some lc -> { l with lpragmas = untiled_pragmas lc }
  in
  let rewrite_func f =
    let params =
      List.map
        (fun p ->
          { p with cpbitwidth = bitwidth cfg p.cpname p.cpty p.cpbitwidth })
        f.cfparams
    in
    { f with cfparams = params; cfbody = map_loops (rewrite_loop f) f.cfbody }
  in
  self_verify prog { cfuncs = List.map rewrite_func prog.cfuncs }

(* ---------- design summaries ---------- *)

(* A loop of the flat function, with the loops nested in it. [n_tiled]
   holds the analysis of the loop's tiled outer and inner loops, whose
   factor-dependent fields (trip counts, step, inner bound, ids,
   pragmas) each design fills in, when {!tile_refusal} accepts the
   loop; [n_refusal] is that verdict. *)
type node = {
  n_info : Canalysis.loop_info;
  n_refusal : string option;
  n_tiled : (Canalysis.loop_info * Canalysis.loop_info) option;
  n_kids : node list;
}

type func_analysis = {
  fa_name : string;
  fa_summary : Canalysis.summary;
  fa_roots : node list;
}

type analysis = func_analysis list

let analyse_func (f : cfunc) =
  let s = Canalysis.analyze f in
  let loops = s.Canalysis.loops in
  (* An id no loop of [f] has, for the inner loop of a tiled copy. *)
  let inner_id =
    List.fold_left
      (fun m (li : Canalysis.loop_info) -> min m li.Canalysis.li_loop.lid)
      0 loops
    - 1
  in
  let tiled (l : loop) =
    match tile_refusal l with
    | Some _ -> None
    | None ->
      let tile_l (l' : loop) =
        if l'.lid = l.lid then
          tile_loop f ~inner_id l' ~tile:2 ~inner_pragmas:[] ~outer_pragmas:[]
        else l'
      in
      let t = Canalysis.analyze { f with cfbody = map_loops tile_l f.cfbody } in
      (* Keep the two loops' analyses, not the copy of the function
         their loop records hold. *)
      let keep id =
        let li = Option.get (Canalysis.find_loop t id) in
        { li with Canalysis.li_loop = { li.Canalysis.li_loop with lbody = [] } }
      in
      Some (keep l.lid, keep inner_id)
  in
  let parent (li : Canalysis.loop_info) =
    match List.rev li.Canalysis.li_ancestors with
    | p :: _ -> Some p
    | [] -> None
  in
  let rec nodes_under p =
    List.filter_map
      (fun (li : Canalysis.loop_info) ->
        if parent li = p then
          let l = li.Canalysis.li_loop in
          Some
            { n_info = li;
              n_refusal = tile_refusal l;
              n_tiled = tiled l;
              n_kids = nodes_under (Some l.lid) }
        else None)
      loops
  in
  { fa_name = f.cfname; fa_summary = s; fa_roots = nodes_under None }

let analyse prog =
  S2fa_obs.Obs.span "merlin.analyse" @@ fun () ->
  List.map analyse_func prog.cfuncs

(* One loop under a design: its factors, and for a tiled loop the
   analysed outer and inner loops with the inner loop's id. *)
type decision = {
  d_info : Canalysis.loop_info;
  d_cfg : loop_cfg option;
  d_tiled : (Canalysis.loop_info * Canalysis.loop_info * int) option;
  d_kids : decision list;
}

let summarize_func cfg fa =
  (* First in [map_loops]'s order, children before their loop: refuse
     an illegal tiling, or draw the inner loop's id as [apply] does.
     Tiling a nested loop leaves [l]'s verdict as it was: the nested
     loop assigns its counter only after declaring it. *)
  let rec decide n =
    let kids = List.map decide n.n_kids in
    let l = n.n_info.Canalysis.li_loop in
    let lc = List.assoc_opt l.lid cfg.cfg_loops in
    let tiled =
      match lc with
      | Some lc when lc.lc_tile > 1 ->
        Option.iter (fun m -> raise (Transform_error m)) n.n_refusal;
        let outer, inner = Option.get n.n_tiled in
        Some (outer, inner, fresh_loop_id ())
      | _ -> None
    in
    { d_info = n.n_info; d_cfg = lc; d_tiled = tiled; d_kids = kids }
  in
  let decided = List.map decide fa.fa_roots in
  (* Then in pre-order, as the analysis lists the rewritten loops. *)
  let out = ref [] in
  let push (li : Canalysis.loop_info) loop ancestors =
    out :=
      { li with
        Canalysis.li_loop = loop;
        li_trip = Canalysis.trip_count loop;
        li_ancestors = ancestors;
        li_depth = List.length ancestors }
      :: !out
  in
  let rec emit ancestors d =
    let li = d.d_info in
    let l = li.Canalysis.li_loop in
    let kids = d.d_kids in
    match (d.d_cfg, d.d_tiled) with
    | None, _ ->
      push li l ancestors;
      List.iter (emit (ancestors @ [ l.lid ])) kids
    | Some lc, None ->
      push li { l with lpragmas = untiled_pragmas lc } ancestors;
      List.iter (emit (ancestors @ [ l.lid ])) kids
    | Some lc, Some ((outer : Canalysis.loop_info), inner, inner_id) ->
      push
        { outer with Canalysis.li_children = [ inner_id ] }
        { outer.Canalysis.li_loop with
          lstep = lc.lc_tile;
          lpragmas = outer_pragmas lc }
        ancestors;
      let ancestors = ancestors @ [ l.lid ] in
      push inner
        { inner.Canalysis.li_loop with
          lid = inner_id;
          lhi = EInt lc.lc_tile;
          lpragmas = inner_pragmas lc }
        ancestors;
      List.iter (emit (ancestors @ [ inner_id ])) kids
  in
  List.iter (emit []) decided;
  let s = fa.fa_summary in
  { s with
    Canalysis.loops = List.rev !out;
    buffers =
      List.map
        (fun (b, t, bw) -> (b, t, bitwidth cfg b t bw))
        s.Canalysis.buffers }

let summarize cfg a =
  S2fa_obs.Obs.span "merlin.apply" @@ fun () ->
  S2fa_obs.Obs.count "transforms.applied";
  check_factors cfg;
  List.map (fun fa -> (fa.fa_name, summarize_func cfg fa)) a

(* ---------- real unrolling (for tests) ---------- *)

let real_unroll ~factor ~loop_id prog =
  S2fa_obs.Obs.span "merlin.unroll" @@ fun () ->
  S2fa_obs.Obs.count "transforms.applied";
  if factor < 1 then err "unroll factor %d" factor;
  let rewrite f (l : loop) =
    if l.lid <> loop_id || factor = 1 then l
    else begin
      (* for (v = lo; v < hi; v++) body
         ->
         for (v_u = lo; v_u < hi; v_u += factor)
           for each k in 0..factor-1:
             if (v_u + k < hi) body[v := v_u + k]      *)
      if l.lstep <> 1 then err "unrolling a loop with step %d" l.lstep;
      if not l.ldecl then
        err
          "unrolling loop '%s' whose counter is declared outside the \
           loop: its exit value is observable and unrolling would change \
           it"
          l.lvar;
      let vu = fresh (taken f) (l.lvar ^ "_u") in
      let copies =
        List.concat_map
          (fun k ->
            let idx = EBin (CAdd, EVar vu, EInt k) in
            let body = subst_stmts l.lvar idx l.lbody in
            [ SIf (EBin (CLt, idx, l.lhi), body, []) ])
          (List.init factor (fun k -> k))
      in
      { l with lvar = vu; lstep = factor; lbody = copies }
    end
  in
  self_verify prog
    { cfuncs =
        List.map
          (fun f -> { f with cfbody = map_loops (rewrite f) f.cfbody })
          prog.cfuncs }

(* ---------- tree reduction ---------- *)

(* Integer-class check for the reduction operand: exact class propagation
   needs only declared types (comparisons and casts force the class).
   Conservative — anything unrecognized is treated as float. *)
let rec expr_has_call = function
  | ECall _ -> true
  | EInt _ | ELong _ | EFloat _ | EDouble _ | EChar _ | EBool _ | EVar _ ->
    false
  | EBin (_, a, b) -> expr_has_call a || expr_has_call b
  | EUn (_, a) | ECast (_, a) -> expr_has_call a
  | EIndex (a, i) -> expr_has_call a || expr_has_call i
  | ECond (c, a, b) ->
    expr_has_call c || expr_has_call a || expr_has_call b

let is_int_ty = function
  | CInt | CLong | CChar | CBool -> true
  | CFloat | CDouble | CArr _ | CPtr _ -> false

let rec is_int_expr tenv = function
  | EInt _ | ELong _ | EChar _ | EBool _ -> true
  | EFloat _ | EDouble _ -> false
  | EVar x -> (
    match Hashtbl.find_opt tenv x with
    | Some t -> is_int_ty t
    | None -> false)
  | EIndex (EVar a, _) -> (
    match Hashtbl.find_opt tenv a with
    | Some (CPtr t) | Some (CArr (t, _)) -> is_int_ty t
    | _ -> false)
  | EIndex _ -> false
  | EBin ((CAnd | COr | CLt | CLe | CGt | CGe | CEq | CNe), _, _) -> true
  | EBin (_, a, b) -> is_int_expr tenv a && is_int_expr tenv b
  | EUn (CNot, _) -> true
  | EUn (_, a) -> is_int_expr tenv a
  | ECast (t, _) -> is_int_ty t
  | ECall _ -> false
  | ECond (_, a, b) -> is_int_expr tenv a && is_int_expr tenv b

let func_tenv (f : cfunc) =
  let tenv = Hashtbl.create 16 in
  let add name t =
    (* a name declared at two different types poisons the check *)
    match Hashtbl.find_opt tenv name with
    | Some t' when t' <> t -> Hashtbl.replace tenv name (CPtr (CPtr CInt))
    | _ -> Hashtbl.replace tenv name t
  in
  List.iter (fun (p : cparam) -> add p.cpname p.cpty) f.cfparams;
  let rec go s =
    match s with
    | SDecl (t, n, _) -> add n t
    | SFor l ->
      add l.lvar l.lvty;
      List.iter go l.lbody
    | SIf (_, a, b) ->
      List.iter go a;
      List.iter go b
    | SWhile (_, b) -> List.iter go b
    | SAssign _ | SExpr _ | SReturn _ -> ()
  in
  List.iter go f.cfbody;
  tenv

let tree_reduce ~lanes ~loop_id prog =
  S2fa_obs.Obs.span "merlin.tree_reduce" @@ fun () ->
  S2fa_obs.Obs.count "transforms.applied";
  if lanes < 2 then err "tree_reduce: lane count %d" lanes;
  let expand tenv f (l : loop) =
    if l.lstep <> 1 then err "tree_reduce: loop step %d" l.lstep;
    if not l.ldecl then
      err
        "tree_reduce: loop '%s' counter is declared outside the loop; its \
         exit value is observable"
        l.lvar;
    match l.lbody with
    | [ SAssign (EVar acc, EBin (((CAdd | CMul) as op), EVar acc', e)) ]
      when String.equal acc acc' ->
      if String.equal acc l.lvar then
        err "tree_reduce: accumulator is the induction variable";
      if expr_uses acc e then
        err "tree_reduce: accumulator '%s' read in the reduction operand"
          acc;
      if expr_uses acc l.lhi || expr_uses acc l.llo then
        err "tree_reduce: accumulator '%s' appears in a loop bound" acc;
      if expr_has_call e then
        err "tree_reduce: call in the reduction operand";
      let acc_ty =
        match Hashtbl.find_opt tenv acc with
        | Some ((CInt | CLong) as t) -> t
        | _ ->
          err
            "tree_reduce: accumulator '%s' is not an integer scalar \
             (floating-point reduction is not associative)"
            acc
      in
      if not (is_int_expr tenv e) then
        err
          "tree_reduce: reduction operand is not integer-class \
           (floating-point reduction is not associative)";
      let ident =
        let n = match op with CAdd -> 0 | _ -> 1 in
        match acc_ty with
        | CLong -> ELong (Int64.of_int n)
        | _ -> EInt n
      in
      let introduced = ref [] in
      let introduce base =
        let n = fresh (fun x -> List.mem x !introduced || taken f x) base in
        introduced := n :: !introduced;
        n
      in
      let vr = introduce (l.lvar ^ "_r") in
      let lanes_ix = List.init lanes (fun k -> k) in
      let lane_names =
        Array.of_list
          (List.map
             (fun k -> introduce (Printf.sprintf "%s_r%d" acc k))
             lanes_ix)
      in
      let lane k = lane_names.(k) in
      let decls =
        List.map (fun k -> SDecl (acc_ty, lane k, Some ident)) lanes_ix
      in
      let copies =
        List.concat_map
          (fun k ->
            let idx = EBin (CAdd, EVar vr, EInt k) in
            let e' = subst_expr l.lvar idx e in
            [ SIf
                ( EBin (CLt, idx, l.lhi),
                  [ SAssign
                      (EVar (lane k), EBin (op, EVar (lane k), e')) ],
                  [] ) ])
          lanes_ix
      in
      let loop' = { l with lvar = vr; lstep = lanes; lbody = copies } in
      let combine =
        SAssign
          ( EVar acc,
            List.fold_left
              (fun acc_e k -> EBin (op, acc_e, EVar (lane k)))
              (EVar acc) lanes_ix )
      in
      decls @ [ SFor loop'; combine ]
    | _ -> err "tree_reduce: body is not a single scalar reduction"
  in
  let rewrite_func (f : cfunc) =
    let tenv = lazy (func_tenv f) in
    let rec rw_stmts stmts = List.concat_map rw_stmt stmts
    and rw_stmt s =
      match s with
      | SFor l when l.lid = loop_id -> expand (Lazy.force tenv) f l
      | SFor l -> [ SFor { l with lbody = rw_stmts l.lbody } ]
      | SIf (c, a, b) -> [ SIf (c, rw_stmts a, rw_stmts b) ]
      | SWhile (c, b) -> [ SWhile (c, rw_stmts b) ]
      | SDecl _ | SAssign _ | SExpr _ | SReturn _ -> [ s ]
    in
    { f with cfbody = rw_stmts f.cfbody }
  in
  self_verify prog { cfuncs = List.map rewrite_func prog.cfuncs }
