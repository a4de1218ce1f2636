module Rng = S2fa_util.Rng
module Ast = S2fa_scala.Ast
module Parser = S2fa_scala.Parser
module Lexer = S2fa_scala.Lexer
module Typecheck = S2fa_scala.Typecheck
module Pretty = S2fa_scala.Pretty
module Compile = S2fa_jvm.Compile
module Insn = S2fa_jvm.Insn
module Verify = S2fa_jvm.Verify
module Interp = S2fa_jvm.Interp
module Csyntax = S2fa_hlsc.Csyntax
module Cinterp = S2fa_hlsc.Cinterp
module Decompile = S2fa_b2c.Decompile
module Transform = S2fa_merlin.Transform
module Dspace = S2fa_dse.Dspace
module Space = S2fa_tuner.Space
module Estimate = S2fa_hls.Estimate
module Serde = S2fa_blaze.Serde
module Sym = S2fa_sym.Sym

type failure = {
  f_oracle : string;
  f_detail : string;
  f_source : string;
  f_len : int;
  f_input_seed : int;
}

type outcome = Passed of int | Rejected of string | Failed of failure

type stats = {
  st_total : int;
  st_passed : int;
  st_rejected : int;
  st_chain_skips : int;
  st_c_total : int;
  st_c_passed : int;
  st_c_skipped : int;
  st_cov_new : int;
  st_cov_features : int;
  st_failures : failure list;
}

(* ==================== kernel generator ==================== *)

(* Everything the generator emits is well-typed by construction and stays
   inside the Section 3.3 subset. Floats and chars are excluded: the
   bytecode interpreter computes [Float] at double precision while the C
   pretty-printer truncates float literals, so they would produce noise
   mismatches rather than bugs. [Lshr] is excluded on purpose: the
   decompiler maps it to an arithmetic shift, a known unsoundness outside
   this PR's scope. Integer division/modulo denominators are shaped as
   [(e & 7) + 1] so neither interpreter can trap. *)

type scope = {
  mutable scalars : (string * Ast.ty * bool) list;  (* name, ty, mutable *)
  mutable arrays : (string * Ast.ty * bool) list;   (* name, elem, writable *)
  mutable tuples : (string * Ast.ty list) list;
  mutable idxs : string list;  (* Int vars always within [0, len) *)
}

let clone_scope sc =
  { scalars = sc.scalars;
    arrays = sc.arrays;
    tuples = sc.tuples;
    idxs = sc.idxs }

type genv = {
  rng : Rng.t;
  len : int;  (* one global array length, so JVM lengths = C capacities *)
  mutable fresh : int;
  mutable helpers : Ast.methd list;
}

let fresh g prefix =
  g.fresh <- g.fresh + 1;
  Printf.sprintf "%s%d" prefix g.fresh

let e k = Ast.mk k
let s k = Ast.mks k
let ilit n = e (Ast.Lit (Ast.LInt n))

let pick_weighted rng cands =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 cands in
  let n = Rng.int rng total in
  let rec go n = function
    | (w, f) :: rest -> if n < w then f () else go (n - w) rest
    | [] -> assert false
  in
  go n cands

let scalar_tys = [ Ast.TInt; Ast.TLong; Ast.TDouble; Ast.TBoolean ]
let numeric_tys = [ Ast.TInt; Ast.TLong; Ast.TDouble ]

(* Dyadic literals survive the decimal round-trip through the printers
   exactly. *)
let lit g ty =
  match ty with
  | Ast.TInt -> ilit (Rng.int_in g.rng (-20) 20)
  | Ast.TLong ->
    e (Ast.Lit (Ast.LLong (Int64.of_int (Rng.int_in g.rng (-20) 20))))
  | Ast.TDouble ->
    e (Ast.Lit (Ast.LDouble (float_of_int (Rng.int_in g.rng (-24) 24) /. 8.0)))
  | Ast.TBoolean -> e (Ast.Lit (Ast.LBool (Rng.bool g.rng)))
  | _ -> assert false

let rec gen_expr g sc depth (ty : Ast.ty) : Ast.expr =
  let leaf () =
    let vars =
      List.filter_map
        (fun (n, t, _) -> if Ast.equal_ty t ty then Some n else None)
        sc.scalars
    in
    let vars =
      if Ast.equal_ty ty Ast.TInt then vars @ sc.idxs else vars
    in
    if vars <> [] && Rng.int g.rng 3 > 0 then
      e (Ast.Ident (Rng.choose_list g.rng vars))
    else lit g ty
  in
  if depth <= 0 then leaf ()
  else begin
    let cands = ref [ (2, leaf) ] in
    let add w f = cands := (w, f) :: !cands in
    (match ty with
    | Ast.TBoolean ->
      add 3 (fun () ->
          let t = Rng.choose_list g.rng numeric_tys in
          let op =
            Rng.choose_list g.rng
              [ Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Eq; Ast.Ne ]
          in
          e (Ast.Binop (op, gen_expr g sc (depth - 1) t,
               gen_expr g sc (depth - 1) t)));
      add 1 (fun () ->
          let op = Rng.choose_list g.rng [ Ast.And; Ast.Or ] in
          e (Ast.Binop (op, gen_expr g sc (depth - 1) Ast.TBoolean,
               gen_expr g sc (depth - 1) Ast.TBoolean)));
      add 1 (fun () ->
          e (Ast.Unop (Ast.Not, gen_expr g sc (depth - 1) Ast.TBoolean)))
    | Ast.TInt | Ast.TLong | Ast.TDouble ->
      add 4 (fun () ->
          let op = Rng.choose_list g.rng [ Ast.Add; Ast.Sub; Ast.Mul ] in
          e (Ast.Binop (op, gen_expr g sc (depth - 1) ty,
               gen_expr g sc (depth - 1) ty)));
      add 1 (fun () ->
          let a = gen_expr g sc (depth - 1) ty in
          let b = gen_expr g sc (depth - 1) ty in
          let op = Rng.choose_list g.rng [ Ast.Div; Ast.Rem ] in
          match ty with
          | Ast.TDouble -> e (Ast.Binop (op, a, b))
          | _ ->
            let seven, one =
              match ty with
              | Ast.TLong -> (Ast.LLong 7L, Ast.LLong 1L)
              | _ -> (Ast.LInt 7, Ast.LInt 1)
            in
            let denom =
              e (Ast.Binop (Ast.Add,
                   e (Ast.Binop (Ast.BAnd, b, e (Ast.Lit seven))),
                   e (Ast.Lit one)))
            in
            e (Ast.Binop (op, a, denom)));
      (match ty with
      | Ast.TInt | Ast.TLong ->
        add 1 (fun () ->
            let op = Rng.choose_list g.rng [ Ast.BAnd; Ast.BOr; Ast.BXor ] in
            e (Ast.Binop (op, gen_expr g sc (depth - 1) ty,
                 gen_expr g sc (depth - 1) ty)));
        add 1 (fun () ->
            let op = Rng.choose_list g.rng [ Ast.Shl; Ast.Shr ] in
            e (Ast.Binop (op, gen_expr g sc (depth - 1) ty,
                 ilit (Rng.int g.rng 5))))
      | _ -> ());
      add 1 (fun () -> e (Ast.Unop (Ast.Neg, gen_expr g sc (depth - 1) ty)));
      add 1 (fun () ->
          let src =
            Rng.choose_list g.rng
              (List.filter (fun t -> not (Ast.equal_ty t ty)) numeric_tys)
          in
          let conv =
            match ty with
            | Ast.TInt -> "toInt"
            | Ast.TLong -> "toLong"
            | _ -> "toDouble"
          in
          e (Ast.Select (gen_expr g sc (depth - 1) src, conv)));
      add 1 (fun () ->
          match ty with
          | Ast.TDouble ->
            let f =
              Rng.choose_list g.rng
                [ "sqrt"; "exp"; "log"; "pow"; "abs"; "min"; "max"; "floor";
                  "ceil" ]
            in
            let arity = if List.mem f [ "pow"; "min"; "max" ] then 2 else 1 in
            e (Ast.MathCall (f,
                 List.init arity (fun _ -> gen_expr g sc (depth - 1) ty)))
          | _ ->
            let f = Rng.choose_list g.rng [ "abs"; "min"; "max" ] in
            let arity = if String.equal f "abs" then 1 else 2 in
            e (Ast.MathCall (f,
                 List.init arity (fun _ -> gen_expr g sc (depth - 1) ty))));
      add 1 (fun () ->
          e (Ast.IfE (gen_expr g sc (depth - 1) Ast.TBoolean,
               gen_expr g sc (depth - 1) ty, gen_expr g sc (depth - 1) ty)));
      let arrs =
        List.filter (fun (_, t, _) -> Ast.equal_ty t ty) sc.arrays
      in
      if arrs <> [] then
        add 3 (fun () ->
            let a, _, _ = Rng.choose_list g.rng arrs in
            e (Ast.Apply (e (Ast.Ident a), [ gen_index g sc depth ])));
      let tups =
        List.concat_map
          (fun (n, ts) ->
            List.filteri (fun _ _ -> true) ts
            |> List.mapi (fun i t -> (n, i, t))
            |> List.filter_map (fun (n, i, t) ->
                   if Ast.equal_ty t ty then Some (n, i) else None))
          sc.tuples
      in
      if tups <> [] then
        add 1 (fun () ->
            let n, i = Rng.choose_list g.rng tups in
            e (Ast.Select (e (Ast.Ident n), Printf.sprintf "_%d" (i + 1))));
      let hs =
        List.filter
          (fun (m : Ast.methd) -> Ast.equal_ty m.Ast.mret ty)
          g.helpers
      in
      if hs <> [] then
        add 2 (fun () ->
            let m = Rng.choose_list g.rng hs in
            e (Ast.Apply (e (Ast.Ident m.Ast.mname),
                 List.map
                   (fun (p : Ast.param) -> gen_expr g sc (depth - 1) p.Ast.pty)
                   m.Ast.mparams)))
    | _ -> ());
    pick_weighted g.rng !cands
  end

(* An Int expression guaranteed to land in [0, len): either an in-scope
   loop counter or an arbitrary expression clamped by ((e % l) + l) % l. *)
and gen_index g sc depth =
  match sc.idxs with
  | _ :: _ when Rng.int g.rng 3 > 0 ->
    e (Ast.Ident (Rng.choose_list g.rng sc.idxs))
  | _ ->
    let a = gen_expr g sc (min 1 (depth - 1)) Ast.TInt in
    let l = ilit g.len in
    e (Ast.Binop (Ast.Rem,
         e (Ast.Binop (Ast.Add, e (Ast.Binop (Ast.Rem, a, l)), l)), l))

let mk_local_array g sc elem : Ast.stmt list =
  let a = fresh g "a" in
  let decl =
    s (Ast.SVal (a, None, e (Ast.NewArray (elem, [ ilit g.len ]))))
  in
  let i = fresh g "i" in
  let fsc = clone_scope sc in
  fsc.idxs <- i :: fsc.idxs;
  fsc.arrays <- (a, elem, true) :: fsc.arrays;
  let fill =
    s (Ast.SFor (i, ilit 0, ilit g.len, Ast.Until,
         { Ast.stmts =
             [ s (Ast.SAssign
                    ( e (Ast.Apply (e (Ast.Ident a), [ e (Ast.Ident i) ])),
                      gen_expr g fsc 1 elem )) ];
           value = None }))
  in
  sc.arrays <- (a, elem, true) :: sc.arrays;
  [ decl; fill ]

let rec gen_stmts g sc depth budget : Ast.stmt list =
  if budget <= 0 then []
  else
    let stmts = gen_stmt g sc depth in
    stmts @ gen_stmts g sc depth (budget - 1)

and gen_stmt g sc depth : Ast.stmt list =
  let scalar_ty () = Rng.choose_list g.rng scalar_tys in
  let cands = ref [] in
  let add w f = cands := (w, f) :: !cands in
  add 3 (fun () ->
      let ty = scalar_ty () in
      let x = fresh g "v" in
      let st = s (Ast.SVal (x, Some ty, gen_expr g sc depth ty)) in
      sc.scalars <- (x, ty, false) :: sc.scalars;
      [ st ]);
  add 2 (fun () ->
      let ty = scalar_ty () in
      let x = fresh g "m" in
      let st = s (Ast.SVar (x, Some ty, gen_expr g sc depth ty)) in
      sc.scalars <- (x, ty, true) :: sc.scalars;
      [ st ]);
  let muts = List.filter (fun (_, _, m) -> m) sc.scalars in
  if muts <> [] then
    add 3 (fun () ->
        let x, ty, _ = Rng.choose_list g.rng muts in
        [ s (Ast.SAssign (e (Ast.Ident x), gen_expr g sc depth ty)) ]);
  add 1 (fun () ->
      mk_local_array g sc (Rng.choose_list g.rng numeric_tys));
  let warrs = List.filter (fun (_, _, w) -> w) sc.arrays in
  if warrs <> [] then
    add 2 (fun () ->
        let a, elem, _ = Rng.choose_list g.rng warrs in
        [ s (Ast.SAssign
               ( e (Ast.Apply (e (Ast.Ident a), [ gen_index g sc depth ])),
                 gen_expr g sc depth elem )) ]);
  if depth > 0 then begin
    add 2 (fun () ->
        let i = fresh g "i" in
        let kind, hi =
          if Rng.bool g.rng then (Ast.Until, g.len) else (Ast.To, g.len - 1)
        in
        let bsc = clone_scope sc in
        bsc.idxs <- i :: bsc.idxs;
        let body = gen_stmts g bsc (depth - 1) (Rng.int_in g.rng 1 2) in
        [ s (Ast.SFor (i, ilit 0, ilit hi, kind,
               { Ast.stmts = body; value = None })) ]);
    add 2 (fun () ->
        let c = gen_expr g sc depth Ast.TBoolean in
        let tsc = clone_scope sc in
        let thn =
          { Ast.stmts = gen_stmts g tsc (depth - 1) (Rng.int_in g.rng 1 2);
            value = None }
        in
        let els =
          if Rng.bool g.rng then begin
            let esc = clone_scope sc in
            Some
              { Ast.stmts = gen_stmts g esc (depth - 1) (Rng.int_in g.rng 1 2);
                value = None }
          end
          else None
        in
        [ s (Ast.SIf (c, thn, els)) ]);
    (* Bounded while: a dedicated counter that the body never touches. *)
    add 1 (fun () ->
        let c = fresh g "w" in
        let bound = Rng.int_in g.rng 1 3 in
        let bsc = clone_scope sc in
        bsc.scalars <- (c, Ast.TInt, false) :: bsc.scalars;
        let body = gen_stmts g bsc (depth - 1) 1 in
        let cond =
          e (Ast.Binop (Ast.Lt, e (Ast.Ident c), ilit bound))
        in
        let inc =
          s (Ast.SAssign (e (Ast.Ident c),
               e (Ast.Binop (Ast.Add, e (Ast.Ident c), ilit 1))))
        in
        sc.scalars <- (c, Ast.TInt, false) :: sc.scalars;
        [ s (Ast.SVar (c, Some Ast.TInt, ilit 0));
          s (Ast.SWhile (cond, { Ast.stmts = body @ [ inc ]; value = None }))
        ])
  end;
  add 1 (fun () ->
      let ts = List.init (Rng.int_in g.rng 2 3) (fun _ -> scalar_ty ()) in
      let t = fresh g "t" in
      let st =
        s (Ast.SVal (t, None,
             e (Ast.TupleE
                  (List.map (fun ty -> gen_expr g sc (max 0 (depth - 1)) ty) ts))))
      in
      sc.tuples <- (t, ts) :: sc.tuples;
      [ st ]);
  pick_weighted g.rng !cands

(* Interface types: scalars and flat arrays, optionally under one tuple. *)
let gen_iface_component g =
  if Rng.int g.rng 3 = 0 then
    Ast.TArray (Rng.choose_list g.rng numeric_tys)
  else Rng.choose_list g.rng scalar_tys

let gen_iface_ty g =
  if Rng.int g.rng 3 = 0 then
    Ast.TTuple (List.init (Rng.int_in g.rng 2 3) (fun _ -> gen_iface_component g))
  else gen_iface_component g

let bind_inputs g sc ity : Ast.stmt list =
  match ity with
  | Ast.TTuple ts ->
    List.mapi
      (fun i t ->
        let x =
          fresh g (match t with Ast.TArray _ -> "ina" | _ -> "ins")
        in
        let st =
          s (Ast.SVal (x, None,
               e (Ast.Select (e (Ast.Ident "in"),
                    Printf.sprintf "_%d" (i + 1)))))
        in
        (match t with
        | Ast.TArray elem -> sc.arrays <- (x, elem, false) :: sc.arrays
        | t -> sc.scalars <- (x, t, false) :: sc.scalars);
        st)
      ts
  | Ast.TArray elem ->
    sc.arrays <- ("in", elem, false) :: sc.arrays;
    []
  | t ->
    sc.scalars <- ("in", t, false) :: sc.scalars;
    []

(* Make sure enough distinct arrays of each needed element type exist for
   the return value; a tuple must never return the same array twice. *)
let ensure_arrays g sc oty : Ast.stmt list =
  let need = Hashtbl.create 4 in
  let rec count = function
    | Ast.TTuple ts -> List.iter count ts
    | Ast.TArray elem ->
      Hashtbl.replace need elem
        (1 + Option.value ~default:0 (Hashtbl.find_opt need elem))
    | _ -> ()
  in
  count oty;
  Hashtbl.fold
    (fun elem n acc ->
      let have =
        List.length
          (List.filter (fun (_, t, _) -> Ast.equal_ty t elem) sc.arrays)
      in
      let rec make k acc =
        if k <= 0 then acc else make (k - 1) (acc @ mk_local_array g sc elem)
      in
      make (n - have) acc)
    need []

let rec ret_expr g sc used oty : Ast.expr =
  match oty with
  | Ast.TTuple ts -> e (Ast.TupleE (List.map (ret_expr g sc used) ts))
  | Ast.TArray elem ->
    let cands =
      List.filter
        (fun (n, t, _) -> Ast.equal_ty t elem && not (List.mem n !used))
        sc.arrays
    in
    let writable = List.filter (fun (_, _, w) -> w) cands in
    let n, _, _ =
      match (writable, cands) with
      | w :: _ :: _, _ when Rng.bool g.rng -> w
      | _, _ -> Rng.choose_list g.rng cands
    in
    used := n :: !used;
    e (Ast.Ident n)
  | t -> gen_expr g sc 2 t

let gen_helper g idx field_scalars field_arrays : Ast.methd =
  let nparams = Rng.int_in g.rng 1 3 in
  let params =
    List.init nparams (fun i ->
        { Ast.pname = Printf.sprintf "h%dp%d" idx i;
          pty = Rng.choose_list g.rng numeric_tys })
  in
  let ret = Rng.choose_list g.rng numeric_tys in
  let sc =
    { scalars =
        field_scalars
        @ List.map (fun (p : Ast.param) -> (p.Ast.pname, p.Ast.pty, false))
            params;
      arrays = field_arrays;
      tuples = [];
      idxs = [] }
  in
  let stmts = gen_stmts g sc 1 (Rng.int g.rng 3) in
  let value = gen_expr g sc 2 ret in
  { Ast.mname = Printf.sprintf "h%d" idx;
    mparams = params;
    mret = ret;
    mbody = { Ast.stmts; value = Some value } }

let gen_kernel rng : Ast.program * int =
  let g = { rng; len = Rng.int_in rng 2 5; fresh = 0; helpers = [] } in
  let nfields = Rng.int g.rng 3 in
  let fields =
    List.init nfields (fun i ->
        let name = Printf.sprintf "p%d" (i + 1) in
        if Rng.int g.rng 3 = 0 then
          (name, Ast.TArray (Rng.choose_list g.rng [ Ast.TInt; Ast.TDouble ]))
        else (name, Rng.choose_list g.rng scalar_tys))
  in
  let field_scalars =
    List.filter_map
      (fun (n, t) ->
        match t with Ast.TArray _ -> None | t -> Some (n, t, false))
      fields
  in
  let field_arrays =
    List.filter_map
      (fun (n, t) ->
        match t with Ast.TArray el -> Some (n, el, false) | _ -> None)
      fields
  in
  for i = 1 to Rng.int g.rng 3 do
    g.helpers <- g.helpers @ [ gen_helper g i field_scalars field_arrays ]
  done;
  let ity = gen_iface_ty g in
  let oty = gen_iface_ty g in
  let sc =
    { scalars = field_scalars; arrays = field_arrays; tuples = []; idxs = [] }
  in
  let binds = bind_inputs g sc ity in
  let body = gen_stmts g sc 2 (Rng.int_in g.rng 2 5) in
  let extra = ensure_arrays g sc oty in
  let ret = ret_expr g sc (ref []) oty in
  let call =
    { Ast.mname = "call";
      mparams = [ { Ast.pname = "in"; pty = ity } ];
      mret = oty;
      mbody = { Ast.stmts = binds @ body @ extra; value = Some ret } }
  in
  let cls =
    { Ast.cname = "Fuzz";
      cparams = List.map (fun (n, t) -> { Ast.pname = n; pty = t }) fields;
      cextends = Some ("Accelerator", [ ity; oty ]);
      cvals = [ ("id", Some Ast.TString, e (Ast.Lit (Ast.LString "fuzz"))) ];
      cmethods = g.helpers @ [ call ] }
  in
  ({ Ast.classes = [ cls ] }, g.len)

(* ==================== oracle runner ==================== *)

exception Fuzz_fail of string * string

let ffail oracle fmt =
  Printf.ksprintf (fun m -> raise (Fuzz_fail (oracle, m))) fmt

let rec gen_value rng len (ty : Ast.ty) : Interp.value =
  match ty with
  | Ast.TInt -> Interp.VInt (Rng.int_in rng (-50) 50)
  | Ast.TLong -> Interp.VLong (Int64.of_int (Rng.int_in rng (-50) 50))
  | Ast.TFloat -> Interp.VFloat (float_of_int (Rng.int_in rng (-40) 40) /. 8.0)
  | Ast.TDouble ->
    Interp.VDouble (float_of_int (Rng.int_in rng (-40) 40) /. 8.0)
  | Ast.TBoolean -> Interp.VBool (Rng.bool rng)
  | Ast.TChar -> Interp.VChar (Char.chr (Rng.int rng 128))
  | Ast.TArray elem ->
    Interp.VArr
      { Interp.aelem = elem;
        adata = Array.init len (fun _ -> gen_value rng len elem) }
  | Ast.TTuple ts ->
    Interp.VTuple (Array.of_list (List.map (gen_value rng len) ts))
  | _ -> invalid_arg "gen_value: unsupported type"

(* NaN-aware structural equality between JVM values. *)
let rec veq (a : Interp.value) (b : Interp.value) =
  match (a, b) with
  | Interp.VInt x, Interp.VInt y -> x = y
  | Interp.VLong x, Interp.VLong y -> Int64.equal x y
  | Interp.VBool x, Interp.VBool y -> x = y
  | Interp.VChar x, Interp.VChar y -> x = y
  | Interp.VFloat x, Interp.VFloat y | Interp.VDouble x, Interp.VDouble y ->
    (Float.is_nan x && Float.is_nan y) || x = y
  | Interp.VUnit, Interp.VUnit -> true
  | Interp.VArr x, Interp.VArr y ->
    Array.length x.Interp.adata = Array.length y.Interp.adata
    && begin
         let ok = ref true in
         Array.iteri
           (fun i v -> if not (veq v y.Interp.adata.(i)) then ok := false)
           x.Interp.adata;
         !ok
       end
  | Interp.VTuple x, Interp.VTuple y ->
    Array.length x = Array.length y
    && begin
         let ok = ref true in
         Array.iteri (fun i v -> if not (veq v y.(i)) then ok := false) x;
         !ok
       end
  | _, _ -> false

let pp_v v = Format.asprintf "%a" Interp.pp_value v

let run_source ~len ~input_seed source : outcome =
  let tasks = 3 and chains = 2 in
  try
    let prog =
      try Parser.parse_program source with
      | Parser.Parse_error (m, _) -> ffail "pipeline" "parse: %s" m
      | Lexer.Lex_error (m, _) -> ffail "pipeline" "lex: %s" m
    in
    let tprog =
      try Typecheck.check_program prog with
      | Typecheck.Type_error (m, _) -> ffail "pipeline" "typecheck: %s" m
    in
    let classes =
      try Compile.compile_program tprog with
      | Compile.Unsupported m -> ffail "pipeline" "compile: %s" m
    in
    let cls =
      match
        List.find_opt (fun (c : Insn.cls) -> c.Insn.jaccel <> None) classes
      with
      | Some c -> c
      | None -> ffail "pipeline" "compile: no accelerator class"
    in
    (* Oracle 1: the verifier accepts everything the compiler emits. *)
    (try Verify.verify_class cls with
    | Verify.Verify_error m -> ffail "verify" "%s" m);
    let ity, oty =
      match cls.Insn.jaccel with Some p -> p | None -> assert false
    in
    let caps = List.init 8 (fun _ -> len) in
    let fcaps =
      List.filter_map
        (fun (f, t) ->
          match t with Ast.TArray _ -> Some (f, len) | _ -> None)
        cls.Insn.jfields
    in
    match Decompile.decompile_class ~in_caps:caps ~out_caps:caps
            ~field_caps:fcaps cls
    with
    | exception Decompile.Decompile_error m -> Rejected m
    | cprog, iface ->
      let flat =
        try Decompile.flat_kernel cprog with
        | Decompile.Decompile_error m -> ffail "pipeline" "flat_kernel: %s" m
      in
      let vrng = Rng.create input_seed in
      let fields =
        List.map (fun (f, t) -> (f, gen_value vrng len t)) cls.Insn.jfields
      in
      let inputs = Array.init tasks (fun _ -> gen_value vrng len ity) in
      let inst = { Interp.icls = cls; ifields = fields } in
      let jvm =
        Array.map
          (fun v ->
            try
              (Interp.run_method ~fuel:1_000_000 inst "call" [ v ]).Interp
                .rvalue
            with Interp.Runtime_error m -> ffail "pipeline" "jvm: %s" m)
          inputs
      in
      let ser_in =
        try Serde.serialize_inputs iface ity inputs with
        | Serde.Serde_error m -> ffail "pipeline" "serde: %s" m
      in
      let fbufs =
        try Serde.field_buffers iface fields with
        | Serde.Serde_error m -> ffail "pipeline" "serde: %s" m
      in
      (* Oracle 2 (and 3 for transformed programs): C ≡ JVM through the
         Blaze serialization layer, exactly as Blaze.map_accelerated
         drives the kernel. *)
      let run_c oracle prog =
        let outs = Serde.alloc_outputs iface tasks in
        let args = (("N", Cinterp.VI tasks) :: ser_in) @ outs @ fbufs in
        (try ignore (Cinterp.run_func ~fuel:2_000_000 prog "kernel" args) with
        | Cinterp.C_error m -> ffail oracle "cinterp: %s" m);
        Array.init tasks (fun t ->
            try Serde.deserialize_output iface oty outs t with
            | Serde.Serde_error m -> ffail oracle "deserialize: %s" m)
      in
      let check oracle prog =
        let c = run_c oracle prog in
        Array.iteri
          (fun t j ->
            if not (veq j c.(t)) then
              ffail oracle "task %d: jvm=%s c=%s" t (pp_v j) (pp_v c.(t)))
          jvm
      in
      check "differential" flat;
      (* Oracle 4: every estimated design yields a sane report. *)
      let buffer_elems =
        List.map
          (fun (l : Decompile.slot_layout) ->
            (l.Decompile.sl_name, l.Decompile.sl_len))
          (iface.Decompile.if_inputs @ iface.Decompile.if_outputs
         @ iface.Decompile.if_fields)
      in
      let check_estimate tag prog =
        match Estimate.estimate prog ~tasks:64 ~buffer_elems with
        | r -> (
          match Estimate.check_report r with
          | Ok () -> r
          | Error m -> ffail "estimate" "%s: %s" tag m)
        | exception ex ->
          ffail "estimate" "%s: raised %s" tag (Printexc.to_string ex)
      in
      ignore (check_estimate "baseline" flat);
      (* Oracle 3: equivalence under random legal transform chains. *)
      let ds =
        try Dspace.identify flat with
        | ex -> ffail "pipeline" "dspace: %s" (Printexc.to_string ex)
      in
      let trng = Rng.create (input_seed lxor 0x5DEECE66D) in
      let skipped = ref 0 in
      let analysis = lazy (Transform.analyse flat) in
      for k = 1 to chains do
        let cfg =
          Dspace.to_merlin ds (Space.random_cfg trng ds.Dspace.ds_space)
        in
        match Transform.apply cfg flat with
        | exception Transform.Transform_error _ -> incr skipped
        | prog' -> (
          check "transform" prog';
          let tag = Printf.sprintf "cfg%d" k in
          let r = check_estimate tag prog' in
          (* The design's estimate derived from the kernel's analysis is
             the rewritten program's, bit for bit. *)
          match
            Estimate.model
              (Transform.summarize cfg (Lazy.force analysis))
              ~tasks:64 ~buffer_elems
          with
          | d ->
            if Estimate.report_bits d <> Estimate.report_bits r then
              ffail "derived" "%s: report differs from the rewritten one" tag
          | exception ex ->
            ffail "derived" "%s: raised %s" tag (Printexc.to_string ex))
      done;
      (* Explicit unroll/tile chains on random unit-step loops, which a
         design-space config cannot express (real unrolling duplicates
         bodies through the substitution machinery). *)
      for k = 1 to chains do
        let prog' = ref flat and alive = ref true in
        for _ = 1 to Rng.int_in trng 1 2 do
          if !alive then begin
            let ids = ref [] in
            List.iter
              (fun (f : Csyntax.cfunc) ->
                Csyntax.iter_loops
                  (fun _ l ->
                    if l.Csyntax.lstep = 1 then
                      ids := l.Csyntax.lid :: !ids)
                  f.Csyntax.cfbody)
              !prog'.Csyntax.cfuncs;
            match !ids with
            | [] -> alive := false
            | ids -> (
              let id = Rng.choose_list trng ids in
              let factor = Rng.int_in trng 2 4 in
              try
                prog' :=
                  if Rng.bool trng then
                    Transform.real_unroll ~factor ~loop_id:id !prog'
                  else
                    Transform.apply
                      { Transform.cfg_loops =
                          [ ( id,
                              { Transform.lc_tile = factor;
                                lc_parallel = 1;
                                lc_pipeline = Csyntax.PipeOff } ) ];
                        cfg_bitwidths = [] }
                      !prog'
              with Transform.Transform_error _ ->
                incr skipped;
                alive := false)
          end
        done;
        if !alive then begin
          check "transform" !prog';
          ignore (check_estimate (Printf.sprintf "chain%d" k) !prog')
        end
      done;
      Passed !skipped
  with
  | Fuzz_fail (oracle, detail) ->
    Failed
      { f_oracle = oracle;
        f_detail = detail;
        f_source = source;
        f_len = len;
        f_input_seed = input_seed }
  | Stack_overflow ->
    Failed
      { f_oracle = "crash";
        f_detail = "stack overflow";
        f_source = source;
        f_len = len;
        f_input_seed = input_seed }
  | ex ->
    Failed
      { f_oracle = "crash";
        f_detail = Printexc.to_string ex;
        f_source = source;
        f_len = len;
        f_input_seed = input_seed }

(* ==================== symbolic coverage ==================== *)

let compile_flat ~len source =
  try
    let cls =
      let prog = Parser.parse_program source in
      let tprog = Typecheck.check_program prog in
      let classes = Compile.compile_program tprog in
      match
        List.find_opt (fun (c : Insn.cls) -> c.Insn.jaccel <> None) classes
      with
      | Some c -> c
      | None -> failwith "no accelerator class"
    in
    let caps = List.init 8 (fun _ -> len) in
    let fcaps =
      List.filter_map
        (fun (f, t) ->
          match t with Ast.TArray _ -> Some (f, len) | _ -> None)
        cls.Insn.jfields
    in
    let cprog, iface =
      Decompile.decompile_class ~in_caps:caps ~out_caps:caps ~field_caps:fcaps
        cls
    in
    let flat = Decompile.flat_kernel cprog in
    let elems =
      List.map
        (fun (l : Decompile.slot_layout) ->
          (l.Decompile.sl_name, l.Decompile.sl_len))
        (iface.Decompile.if_inputs @ iface.Decompile.if_outputs
       @ iface.Decompile.if_fields)
    in
    Ok (flat, elems)
  with
  | Parser.Parse_error (m, _) -> Error ("parse: " ^ m)
  | Lexer.Lex_error (m, _) -> Error ("lex: " ^ m)
  | Typecheck.Type_error (m, _) -> Error ("typecheck: " ^ m)
  | Compile.Unsupported m -> Error ("compile: " ^ m)
  | Decompile.Decompile_error m -> Error ("decompile: " ^ m)
  | Failure m -> Error m

(* Input/output buffer element counts are per task; field buffers (the
   [f_] prefix) are shared and already full-size. *)
let scale_caps ~tasks elems =
  List.map
    (fun (n, k) ->
      if String.length n >= 2 && String.equal (String.sub n 0 2) "f_" then
        (n, k)
      else (n, k * tasks))
    elems

let cov_budget =
  { Sym.bg_steps = 200_000; bg_nodes = 150_000; bg_trip = 256 }

let kernel_coverage ~len source : int list =
  match compile_flat ~len source with
  | Error _ -> []
  | Ok (flat, elems) -> (
    let tasks = 2 in
    match
      Sym.coverage ~budget:cov_budget
        ~bindings:[ ("N", Cinterp.VI tasks) ]
        ~caps:(scale_caps ~tasks elems)
        flat "kernel"
    with
    | Ok feats -> feats
    | Error _ -> [])

(* ==================== shrinker ==================== *)

let replace_nth l i x = List.mapi (fun j y -> if j = i then x else y) l
let remove_nth l i = List.filteri (fun j _ -> j <> i) l

let rec expr_variants (ex : Ast.expr) : Ast.expr list =
  let mk k = { ex with Ast.e = k } in
  let shallow =
    match ex.Ast.e with
    | Ast.Lit (Ast.LInt n) when n <> 0 -> [ mk (Ast.Lit (Ast.LInt (n / 2))) ]
    | Ast.Lit (Ast.LLong n) when n <> 0L ->
      [ mk (Ast.Lit (Ast.LLong (Int64.div n 2L))) ]
    | Ast.Lit (Ast.LDouble d) when d <> 0.0 ->
      [ mk (Ast.Lit (Ast.LDouble 0.0)) ]
    | Ast.Binop (_, a, b) -> [ a; b ]
    | Ast.Unop (_, a) -> [ a ]
    | Ast.IfE (_, a, b) -> [ a; b ]
    | Ast.MathCall (_, args) | Ast.CallSelf (_, args) -> args
    | _ -> []
  in
  let deep =
    match ex.Ast.e with
    | Ast.Binop (op, a, b) ->
      List.map (fun a' -> mk (Ast.Binop (op, a', b))) (expr_variants a)
      @ List.map (fun b' -> mk (Ast.Binop (op, a, b'))) (expr_variants b)
    | Ast.Unop (op, a) ->
      List.map (fun a' -> mk (Ast.Unop (op, a'))) (expr_variants a)
    | Ast.IfE (c, a, b) ->
      List.map (fun c' -> mk (Ast.IfE (c', a, b))) (expr_variants c)
      @ List.map (fun a' -> mk (Ast.IfE (c, a', b))) (expr_variants a)
      @ List.map (fun b' -> mk (Ast.IfE (c, a, b'))) (expr_variants b)
    | Ast.Apply (f, args) ->
      List.concat
        (List.mapi
           (fun i a ->
             List.map
               (fun a' -> mk (Ast.Apply (f, replace_nth args i a')))
               (expr_variants a))
           args)
    | Ast.Select (a, fld) ->
      List.map (fun a' -> mk (Ast.Select (a', fld))) (expr_variants a)
    | Ast.TupleE args ->
      List.concat
        (List.mapi
           (fun i a ->
             List.map
               (fun a' -> mk (Ast.TupleE (replace_nth args i a')))
               (expr_variants a))
           args)
    | Ast.MathCall (fn, args) ->
      List.concat
        (List.mapi
           (fun i a ->
             List.map
               (fun a' -> mk (Ast.MathCall (fn, replace_nth args i a')))
               (expr_variants a))
           args)
    | Ast.CallSelf (fn, args) ->
      List.concat
        (List.mapi
           (fun i a ->
             List.map
               (fun a' -> mk (Ast.CallSelf (fn, replace_nth args i a')))
               (expr_variants a))
           args)
    | _ -> []
  in
  shallow @ deep

and stmt_variants (st : Ast.stmt) : Ast.stmt list =
  let mk k = { st with Ast.s = k } in
  match st.Ast.s with
  | Ast.SVal (n, t, ex) ->
    List.map (fun e' -> mk (Ast.SVal (n, t, e'))) (expr_variants ex)
  | Ast.SVar (n, t, ex) ->
    List.map (fun e' -> mk (Ast.SVar (n, t, e'))) (expr_variants ex)
  | Ast.SAssign (lv, ex) ->
    List.map (fun l' -> mk (Ast.SAssign (l', ex))) (expr_variants lv)
    @ List.map (fun e' -> mk (Ast.SAssign (lv, e'))) (expr_variants ex)
  | Ast.SWhile (c, b) ->
    List.map (fun c' -> mk (Ast.SWhile (c', b))) (expr_variants c)
    @ List.map (fun b' -> mk (Ast.SWhile (c, b'))) (block_variants b)
  | Ast.SFor (v, lo, hi, k, b) ->
    List.map (fun hi' -> mk (Ast.SFor (v, lo, hi', k, b))) (expr_variants hi)
    @ List.map (fun b' -> mk (Ast.SFor (v, lo, hi, k, b'))) (block_variants b)
  | Ast.SIf (c, a, bo) ->
    (match bo with Some _ -> [ mk (Ast.SIf (c, a, None)) ] | None -> [])
    @ List.map (fun c' -> mk (Ast.SIf (c', a, bo))) (expr_variants c)
    @ List.map (fun a' -> mk (Ast.SIf (c, a', bo))) (block_variants a)
    @ (match bo with
      | Some b ->
        List.map (fun b' -> mk (Ast.SIf (c, a, Some b'))) (block_variants b)
      | None -> [])
  | Ast.SExpr ex -> List.map (fun e' -> mk (Ast.SExpr e')) (expr_variants ex)

and block_variants (b : Ast.block) : Ast.block list =
  let n = List.length b.Ast.stmts in
  let drops =
    List.init n (fun i -> { b with Ast.stmts = remove_nth b.Ast.stmts i })
  in
  let hoists =
    List.concat
      (List.mapi
         (fun i (st : Ast.stmt) ->
           let inline inner =
             { b with
               Ast.stmts =
                 List.concat
                   (List.mapi
                      (fun j y -> if j = i then inner else [ y ])
                      b.Ast.stmts) }
           in
           match st.Ast.s with
           | Ast.SIf (_, a, bo) ->
             inline a.Ast.stmts
             :: (match bo with Some x -> [ inline x.Ast.stmts ] | None -> [])
           | Ast.SFor (_, _, _, _, inner) | Ast.SWhile (_, inner) ->
             [ inline inner.Ast.stmts ]
           | _ -> [])
         b.Ast.stmts)
  in
  let rewrites =
    List.concat
      (List.mapi
         (fun i st ->
           List.map
             (fun st' -> { b with Ast.stmts = replace_nth b.Ast.stmts i st' })
             (stmt_variants st))
         b.Ast.stmts)
  in
  let values =
    match b.Ast.value with
    | Some ex ->
      List.map (fun e' -> { b with Ast.value = Some e' }) (expr_variants ex)
    | None -> []
  in
  drops @ hoists @ rewrites @ values

let program_variants (p : Ast.program) : Ast.program list =
  match p.Ast.classes with
  | [ cls ] ->
    let drop_helpers =
      List.filter_map
        (fun (m : Ast.methd) ->
          if String.equal m.Ast.mname "call" then None
          else
            Some
              { cls with
                Ast.cmethods =
                  List.filter
                    (fun (x : Ast.methd) -> not (x == m))
                    cls.Ast.cmethods })
        cls.Ast.cmethods
    in
    let meth_rewrites =
      List.concat
        (List.mapi
           (fun i (m : Ast.methd) ->
             List.map
               (fun b' ->
                 { cls with
                   Ast.cmethods =
                     replace_nth cls.Ast.cmethods i { m with Ast.mbody = b' }
                 })
               (block_variants m.Ast.mbody))
           cls.Ast.cmethods)
    in
    List.map (fun c -> { Ast.classes = [ c ] }) (drop_helpers @ meth_rewrites)
  | _ -> []

let failure_key oracle detail =
  match oracle with
  | "pipeline" | "crash" ->
    (* Keep the whole diagnostic but blank out quoted identifiers and
       numbers: a shrink that renames a variable or changes a constant
       still counts as the same bug, while a different diagnostic from
       the same stage (e.g. "unbound identifier" vs "expects Long") does
       not — otherwise the shrinker morphs one bug into another. *)
    let b = Buffer.create (String.length detail) in
    let in_quote = ref false in
    String.iter
      (fun c ->
        if c = '\'' then begin
          in_quote := not !in_quote;
          Buffer.add_char b c
        end
        else if !in_quote then ()
        else if (c >= '0' && c <= '9') || c = '-' then ()
        else Buffer.add_char b c)
      detail;
    (oracle, Buffer.contents b)
  | _ ->
    (* Mismatch details quote concrete output values, which legitimately
       change as the program shrinks; the oracle name is the bug class. *)
    (oracle, "")

let shrink_failure (f0 : failure) : failure =
  match Parser.parse_program f0.f_source with
  | exception _ -> f0
  | prog0 ->
    let want = failure_key f0.f_oracle f0.f_detail in
    let budget = ref 400 in
    let reproduces prog =
      if !budget <= 0 then None
      else begin
        decr budget;
        let src = Pretty.to_string prog in
        match
          run_source ~len:f0.f_len ~input_seed:f0.f_input_seed src
        with
        | Failed f when failure_key f.f_oracle f.f_detail = want -> Some f
        | _ -> None
      end
    in
    let rec go best prog =
      let rec try_vars = function
        | [] -> best
        | p :: rest -> (
          match reproduces p with
          | Some f -> if !budget > 0 then go f p else f
          | None -> try_vars rest)
      in
      try_vars (program_variants prog)
    in
    go f0 prog0

(* ==================== C-level transform fuzzing ==================== *)

(* Random Csyntax kernels exercise the unroll/tile substitution machinery
   on shapes decompiled code cannot produce: declarations and writes of
   induction variables inside loop bodies (the variable-capture bugs).
   A small name pool forces shadowing. The oracle compares the kernel's
   [out] buffer before and after a random transform chain; a
   [Transform_error] is a legality refusal and skips the case. *)

let c_cap = 8
let c_pool = [| "i"; "j"; "k"; "t" |]

let c_clamp e =
  Csyntax.(
    EBin (CRem, EBin (CAdd, EBin (CRem, e, EInt c_cap), EInt c_cap),
      EInt c_cap))

let rec gen_cexpr rng vars depth : Csyntax.cexpr =
  let leaf () =
    if vars <> [] && Rng.bool rng then Csyntax.EVar (Rng.choose_list rng vars)
    else Csyntax.EInt (Rng.int_in rng (-9) 9)
  in
  if depth <= 0 then leaf ()
  else
    match Rng.int rng 6 with
    | 0 ->
      Csyntax.EBin (Csyntax.CAdd, gen_cexpr rng vars (depth - 1),
        gen_cexpr rng vars (depth - 1))
    | 1 ->
      Csyntax.EBin (Csyntax.CSub, gen_cexpr rng vars (depth - 1),
        gen_cexpr rng vars (depth - 1))
    | 2 ->
      Csyntax.EBin (Csyntax.CMul, gen_cexpr rng vars (depth - 1),
        gen_cexpr rng vars (depth - 1))
    | 3 ->
      (* (b & 3) + 1 keeps the denominator nonzero. *)
      Csyntax.EBin (Csyntax.CDiv, gen_cexpr rng vars (depth - 1),
        Csyntax.EBin (Csyntax.CAdd,
          Csyntax.EBin (Csyntax.CBAnd, gen_cexpr rng vars (depth - 1),
            Csyntax.EInt 3),
          Csyntax.EInt 1))
    | 4 -> Csyntax.EIndex (Csyntax.EVar "in", c_clamp (gen_cexpr rng vars 1))
    | _ -> leaf ()

let rec gen_cstmts rng vars depth budget : Csyntax.cstmt list =
  if budget <= 0 then []
  else begin
    let stmt =
      match Rng.int rng (if depth > 0 then 6 else 4) with
      | 0 ->
        (* A declaration — possibly shadowing an enclosing loop's
           induction variable. *)
        let v = Rng.choose rng c_pool in
        let st = Csyntax.SDecl (Csyntax.CInt, v, Some (gen_cexpr rng !vars 2)) in
        if not (List.mem v !vars) then vars := v :: !vars;
        [ st ]
      | 1 when !vars <> [] ->
        (* A scalar write — possibly to an induction variable. *)
        [ Csyntax.SAssign (Csyntax.EVar (Rng.choose_list rng !vars),
            gen_cexpr rng !vars 2) ]
      | 1 | 2 | 3 ->
        [ Csyntax.SAssign
            ( Csyntax.EIndex (Csyntax.EVar "out", c_clamp (gen_cexpr rng !vars 2)),
              gen_cexpr rng !vars 2 ) ]
      | 4 ->
        let v = Rng.choose rng c_pool in
        (* The loop variable is visible in the body but deliberately not
           leaked past the loop: in C99 it is block-scoped, and code
           reading it after the loop would make unrolling observably
           change behaviour without that being a transform bug. *)
        let inner = ref (if List.mem v !vars then !vars else v :: !vars) in
        let body = gen_cstmts rng inner (depth - 1) (Rng.int_in rng 1 3) in
        [ Csyntax.SFor
            (Csyntax.mk_loop ~var:v ~lo:(Csyntax.EInt 0)
               ~hi:(Csyntax.EInt (Rng.int_in rng 2 4))
               body) ]
      | _ ->
        let a = gen_cstmts rng (ref !vars) (depth - 1) (Rng.int_in rng 1 2) in
        let b =
          if Rng.bool rng then
            gen_cstmts rng (ref !vars) (depth - 1) (Rng.int_in rng 1 2)
          else []
        in
        [ Csyntax.SIf
            ( Csyntax.EBin (Csyntax.CLt, gen_cexpr rng !vars 1,
                gen_cexpr rng !vars 1),
              a, b ) ]
    in
    stmt @ gen_cstmts rng vars depth (budget - 1)
  end

let gen_c_kernel rng : Csyntax.cprog =
  let vars = ref [] in
  let body = gen_cstmts rng vars 2 (Rng.int_in rng 2 4) in
  (* Guarantee at least one transformable loop, otherwise most cases
     skip without exercising anything. *)
  let body =
    let rec has_loop ss =
      List.exists
        (function
          | Csyntax.SFor _ -> true
          | Csyntax.SIf (_, a, b) -> has_loop a || has_loop b
          | Csyntax.SWhile (_, b) -> has_loop b
          | _ -> false)
        ss
    in
    if has_loop body then body
    else begin
      let v = Rng.choose rng c_pool in
      let inner = ref (if List.mem v !vars then !vars else v :: !vars) in
      body
      @ [ Csyntax.SFor
            (Csyntax.mk_loop ~var:v ~lo:(Csyntax.EInt 0)
               ~hi:(Csyntax.EInt (Rng.int_in rng 2 4))
               (gen_cstmts rng inner 1 (Rng.int_in rng 1 3))) ]
    end
  in
  let kern =
    { Csyntax.cfname = "kernel";
      cfparams =
        [ { Csyntax.cpname = "N"; cpty = Csyntax.CInt; cpbitwidth = None };
          { Csyntax.cpname = "in";
            cpty = Csyntax.CPtr Csyntax.CInt;
            cpbitwidth = None };
          { Csyntax.cpname = "out";
            cpty = Csyntax.CPtr Csyntax.CInt;
            cpbitwidth = None } ];
      cfret = None;
      cfbody = body }
  in
  { Csyntax.cfuncs = [ kern ] }

let run_c_case rng : [ `Pass | `Skip | `Fail of failure ] =
  let prog = gen_c_kernel rng in
  let exec p =
    let out = Array.init c_cap (fun _ -> Cinterp.VI 0) in
    let args =
      [ ("N", Cinterp.VI 4);
        ("in", Cinterp.VA (Array.init c_cap (fun i -> Cinterp.VI ((i * 7) - 11))));
        ("out", Cinterp.VA out) ]
    in
    ignore (Cinterp.run_func ~fuel:300_000 p "kernel" args);
    out
  in
  match exec prog with
  | exception Cinterp.C_error _ -> `Skip
  | base -> (
    let prog' = ref prog and alive = ref true and transformed = ref false in
    for _ = 1 to Rng.int_in rng 1 2 do
      if !alive then begin
        let ids = ref [] in
        List.iter
          (fun (f : Csyntax.cfunc) ->
            Csyntax.iter_loops
              (fun _ l ->
                if l.Csyntax.lstep = 1 then ids := l.Csyntax.lid :: !ids)
              f.Csyntax.cfbody)
          !prog'.Csyntax.cfuncs;
        match !ids with
        | [] -> alive := false
        | ids -> (
          let id = Rng.choose_list rng ids in
          let factor = Rng.int_in rng 2 3 in
          try
            prog' :=
              (if Rng.bool rng then
                 Transform.real_unroll ~factor ~loop_id:id !prog'
               else
                 Transform.apply
                   { Transform.cfg_loops =
                       [ ( id,
                           { Transform.lc_tile = factor;
                             lc_parallel = 1;
                             lc_pipeline = Csyntax.PipeOff } ) ];
                     cfg_bitwidths = [] }
                   !prog');
            transformed := true
          with Transform.Transform_error _ -> alive := false)
      end
    done;
    if not !transformed then `Skip
    else
      let fail detail =
        `Fail
          { f_oracle = "c-transform";
            f_detail = detail;
            f_source = Csyntax.to_string prog;
            f_len = c_cap;
            f_input_seed = 0 }
      in
      match exec !prog' with
      | exception Cinterp.C_error m -> fail ("transformed run: " ^ m)
      | out' ->
        if Cinterp.equal_cvalue (Cinterp.VA base) (Cinterp.VA out') then `Pass
        else begin
          let show a =
            String.concat ","
              (List.map
                 (function Cinterp.VI n -> string_of_int n | _ -> "?")
                 (Array.to_list a))
          in
          fail
            (Printf.sprintf "out mismatch: orig=[%s] transformed=[%s]"
               (show base) (show out'))
        end)

(* ==================== campaign ==================== *)

(* A mutant is accepted only when it round-trips through the printer and
   typechecker; [program_variants] happily drops a declaration whose name
   is still used. *)
let pick_mutant rng (base : Ast.program) : Ast.program option =
  match program_variants base with
  | [] -> None
  | vars ->
    let rec go k =
      if k <= 0 then None
      else
        let v = Rng.choose_list rng vars in
        match Parser.parse_program (Pretty.to_string v) with
        | exception _ -> go (k - 1)
        | p -> (
          match Typecheck.check_program p with
          | exception _ -> go (k - 1)
          | _ -> Some v)
    in
    go 4

let run_campaign ?(shrink = true) ?(coverage = false) ~seed ~count () :
    stats =
  let rng = Rng.create seed in
  let passed = ref 0 and rejected = ref 0 and skips = ref 0 in
  let failures = ref [] in
  (* Coverage guidance: symbolic path features of every kernel feed a
     global feature set; a kernel contributing a new feature joins the
     mutation pool, and later iterations mutate pool members instead of
     generating from scratch. *)
  let seen = Hashtbl.create 256 in
  let pool = ref [] in
  let cov_new = ref 0 in
  for i = 1 to count do
    let krng = Rng.split rng in
    let prog, len, is_mutant =
      if coverage && !pool <> [] && Rng.int krng 3 > 0 then begin
        let base, blen = Rng.choose_list krng !pool in
        match pick_mutant krng base with
        | Some v -> (v, blen, true)
        | None ->
          let p, l = gen_kernel krng in
          (p, l, false)
      end
      else
        let p, l = gen_kernel krng in
        (p, l, false)
    in
    let source = Pretty.to_string prog in
    let input_seed = (seed * 1_000_003) + i in
    (match run_source ~len ~input_seed source with
    | Passed k ->
      incr passed;
      skips := !skips + k
    | Rejected _ -> incr rejected
    (* A mutant that breaks a generator invariant (traps, compiles to an
       unsupported shape) is a rejection, not a pipeline bug: the
       generator promises trap-freedom, mutation does not. Cross-stage
       disagreements on a mutant are still real failures. *)
    | Failed f when is_mutant && String.equal f.f_oracle "pipeline" ->
      incr rejected
    | Failed f ->
      let f = if shrink then shrink_failure f else f in
      failures := f :: !failures);
    if coverage then begin
      let fresh =
        List.filter
          (fun x -> not (Hashtbl.mem seen x))
          (kernel_coverage ~len source)
      in
      if fresh <> [] then begin
        incr cov_new;
        List.iter (fun x -> Hashtbl.replace seen x ()) fresh;
        pool := (prog, len) :: List.filteri (fun j _ -> j < 31) !pool
      end
    end
  done;
  let c_passed = ref 0 and c_skipped = ref 0 in
  for _ = 1 to count do
    match run_c_case (Rng.split rng) with
    | `Pass -> incr c_passed
    | `Skip -> incr c_skipped
    | `Fail f -> failures := f :: !failures
  done;
  { st_total = count;
    st_passed = !passed;
    st_rejected = !rejected;
    st_chain_skips = !skips;
    st_c_total = count;
    st_c_passed = !c_passed;
    st_c_skipped = !c_skipped;
    st_cov_new = !cov_new;
    st_cov_features = Hashtbl.length seen;
    st_failures = List.rev !failures }

let distinct_failures st =
  List.length
    (List.sort_uniq compare
       (List.map (fun f -> failure_key f.f_oracle f.f_detail) st.st_failures))

let pp_stats ppf st =
  Format.fprintf ppf
    "@[<v>scala kernels: %d (%d passed, %d rejected, %d failed; %d chains \
     skipped)@,\
     c transform cases: %d (%d passed, %d skipped, %d failed)@]"
    st.st_total st.st_passed st.st_rejected
    (List.length
       (List.filter
          (fun f -> not (String.equal f.f_oracle "c-transform"))
          st.st_failures))
    st.st_chain_skips st.st_c_total st.st_c_passed st.st_c_skipped
    (List.length
       (List.filter
          (fun f -> String.equal f.f_oracle "c-transform")
          st.st_failures));
  if st.st_cov_features > 0 then
    Format.fprintf ppf "@.coverage: %d symbolic path features (%d kernels \
                        contributed new ones)"
      st.st_cov_features st.st_cov_new

(* ==================== corpus ==================== *)

type expectation = Expect_pass | Expect_reject | Expect_fail

let write_corpus_file ~dir ~expect (f : failure) =
  let name =
    Printf.sprintf "fuzz_%s_%08x.scala" f.f_oracle
      (Hashtbl.hash (f.f_source, f.f_detail) land 0xFFFFFFF)
  in
  let path = Filename.concat dir name in
  let oc = open_out path in
  Printf.fprintf oc "// s2fa-fuzz expect=%s len=%d input-seed=%d oracle=%s\n"
    expect f.f_len f.f_input_seed f.f_oracle;
  output_string oc f.f_source;
  close_out oc;
  path

let replay_file path =
  Result.bind (S2fa_telemetry.Telemetry.Json.read_file path) @@ fun text ->
  let header, source =
    match String.index_opt text '\n' with
    | Some i ->
      ( String.sub text 0 i,
        String.sub text (i + 1) (String.length text - i - 1) )
    | None -> (text, "")
  in
  let bad fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "%s:1: %s" path m)) fmt
  in
  let kv =
    List.filter_map
      (fun tok ->
        match String.index_opt tok '=' with
        | Some i ->
          Some
            ( String.sub tok 0 i,
              String.sub tok (i + 1) (String.length tok - i - 1) )
        | None -> None)
      (String.split_on_char ' ' header)
  in
  let int k =
    match List.assoc_opt k kv with
    | None -> bad "missing %s= in header" k
    | Some v -> (
      match int_of_string_opt v with
      | Some n -> Ok n
      | None -> bad "%s=%s is not an integer" k v)
  in
  if not (String.starts_with ~prefix:"// s2fa-fuzz " header) then
    bad "no \"// s2fa-fuzz\" header"
  else
    match List.assoc_opt "expect" kv with
    | None -> bad "missing expect= in header"
    | Some e -> (
      let expect =
        match e with
        | "pass" -> Some Expect_pass
        | "reject" -> Some Expect_reject
        | "fail" -> Some Expect_fail
        | _ -> None
      in
      match (expect, int "len", int "input-seed") with
      | None, _, _ -> bad "expect=%s is not pass, reject or fail" e
      | _, (Error _ as err), _ | _, _, (Error _ as err) -> err
      | Some expect, Ok len, Ok input_seed ->
        Ok (expect, run_source ~len ~input_seed source))

let ocaml_repro ~name (f : failure) =
  Printf.sprintf
    "let %s () =\n\
    \  let source = {scala|%s|scala} in\n\
    \  match S2fa_fuzz.Fuzz.run_source ~len:%d ~input_seed:%d source with\n\
    \  | S2fa_fuzz.Fuzz.Failed f ->\n\
    \    Alcotest.failf \"still failing (%%s): %%s\" f.S2fa_fuzz.Fuzz.f_oracle\n\
    \      f.S2fa_fuzz.Fuzz.f_detail\n\
    \  | _ -> ()\n"
    name f.f_source f.f_len f.f_input_seed
