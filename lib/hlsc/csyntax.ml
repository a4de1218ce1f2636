type cty =
  | CBool
  | CChar
  | CInt
  | CLong
  | CFloat
  | CDouble
  | CArr of cty * int
  | CPtr of cty

type cbinop =
  | CAdd | CSub | CMul | CDiv | CRem
  | CLt | CLe | CGt | CGe | CEq | CNe
  | CAnd | COr
  | CBAnd | CBOr | CBXor | CShl | CShr

type cunop = CNeg | CNot | CBNot

type cexpr =
  | EInt of int
  | ELong of int64
  | EFloat of float
  | EDouble of float
  | EChar of char
  | EBool of bool
  | EVar of string
  | EBin of cbinop * cexpr * cexpr
  | EUn of cunop * cexpr
  | EIndex of cexpr * cexpr
  | ECall of string * cexpr list
  | ECond of cexpr * cexpr * cexpr
  | ECast of cty * cexpr

type pipeline_mode = PipeOn | PipeOff | PipeFlatten

type pragma =
  | Pipeline of pipeline_mode
  | Parallel of int
  | Tile of int

type cstmt =
  | SDecl of cty * string * cexpr option
  | SAssign of cexpr * cexpr
  | SIf of cexpr * cstmt list * cstmt list
  | SWhile of cexpr * cstmt list
  | SFor of loop
  | SExpr of cexpr
  | SReturn of cexpr option

and loop = {
  lid : int;
  lvar : string;
  lvty : cty;                  (* declared type of the induction variable *)
  ldecl : bool;
      (* [true]: the for-init declares the variable ([for (int v = ...)])
         and C99 scopes it to the loop. [false]: the variable is declared
         outside and the for-init only assigns it ([for (v = ...)]); its
         exit value is observable after the loop. *)
  llo : cexpr;
  lhi : cexpr;
  lstep : int;
  lbody : cstmt list;
  lpragmas : pragma list;
}

type cparam = { cpname : string; cpty : cty; cpbitwidth : int option }

type cfunc = {
  cfname : string;
  cfparams : cparam list;
  cfret : cty option;
  cfbody : cstmt list;
}

type cprog = { cfuncs : cfunc list }

let loop_counter = ref 0

let fresh_loop_id () =
  incr loop_counter;
  !loop_counter

let mk_loop ?(vty = CInt) ?(decl = true) ~var ~lo ~hi
    ?(step = 1) body =
  { lid = fresh_loop_id ();
    lvar = var;
    lvty = vty;
    ldecl = decl;
    llo = lo;
    lhi = hi;
    lstep = step;
    lbody = body;
    lpragmas = [] }

let rec ty_bits = function
  | CBool -> 1
  | CChar -> 8
  | CInt -> 32
  | CLong -> 64
  | CFloat -> 32
  | CDouble -> 64
  | CArr (t, _) | CPtr t -> ty_bits t

let rec const_int_of = function
  | EInt n -> Some n
  | EBin (op, a, b) -> (
    match (const_int_of a, const_int_of b) with
    | Some x, Some y -> (
      match op with
      | CAdd -> Some (x + y)
      | CSub -> Some (x - y)
      | CMul -> Some (x * y)
      | CDiv -> if y = 0 then None else Some (x / y)
      | CRem -> if y = 0 then None else Some (x mod y)
      | CShl -> Some (x lsl y)
      | CShr -> Some (x asr y)
      | CBAnd -> Some (x land y)
      | CBOr -> Some (x lor y)
      | CBXor -> Some (x lxor y)
      | CLt | CLe | CGt | CGe | CEq | CNe | CAnd | COr -> None)
    | _, _ -> None)
  | EUn (CNeg, a) -> Option.map (fun x -> -x) (const_int_of a)
  | EUn ((CNot | CBNot), _)
  | ELong _ | EFloat _ | EDouble _ | EChar _ | EBool _ | EVar _ | EIndex _
  | ECall _ | ECond _ | ECast _ ->
    None

let find_cfunc prog name =
  List.find_opt (fun f -> String.equal f.cfname name) prog.cfuncs

let rec map_loops f stmts =
  let map_stmt = function
    | SFor l ->
      let l' = { l with lbody = map_loops f l.lbody } in
      SFor (f l')
    | SIf (c, a, b) -> SIf (c, map_loops f a, map_loops f b)
    | SWhile (c, b) -> SWhile (c, map_loops f b)
    | (SDecl _ | SAssign _ | SExpr _ | SReturn _) as s -> s
  in
  List.map map_stmt stmts

let iter_loops f stmts =
  let rec go ancestors stmts =
    List.iter
      (function
        | SFor l ->
          f ancestors l;
          go (ancestors @ [ l.lid ]) l.lbody
        | SIf (_, a, b) ->
          go ancestors a;
          go ancestors b
        | SWhile (_, b) -> go ancestors b
        | SDecl _ | SAssign _ | SExpr _ | SReturn _ -> ())
      stmts
  in
  go [] stmts

(* ---------- pretty printing ---------- *)

let rec base_ty_name = function
  | CBool -> "bool"
  | CChar -> "char"
  | CInt -> "int"
  | CLong -> "long long"
  | CFloat -> "float"
  | CDouble -> "double"
  | CArr (t, _) | CPtr t -> base_ty_name t

let pp_cty ppf t =
  match t with
  | CPtr _ -> Format.fprintf ppf "%s *" (base_ty_name t)
  | _ -> Format.pp_print_string ppf (base_ty_name t)

let prec_of = function
  | COr -> 1
  | CAnd -> 2
  | CBOr -> 3
  | CBXor -> 4
  | CBAnd -> 5
  | CEq | CNe -> 6
  | CLt | CLe | CGt | CGe -> 7
  | CShl | CShr -> 8
  | CAdd | CSub -> 9
  | CMul | CDiv | CRem -> 10

let string_of_cbinop = function
  | CAdd -> "+" | CSub -> "-" | CMul -> "*" | CDiv -> "/" | CRem -> "%"
  | CLt -> "<" | CLe -> "<=" | CGt -> ">" | CGe -> ">=" | CEq -> "==" | CNe -> "!="
  | CAnd -> "&&" | COr -> "||"
  | CBAnd -> "&" | CBOr -> "|" | CBXor -> "^" | CShl -> "<<" | CShr -> ">>"

let rec pp_expr_prec ppf (p, e) =
  match e with
  | EInt n -> Format.fprintf ppf "%d" n
  | ELong n -> Format.fprintf ppf "%LdLL" n
  | EFloat f -> Format.fprintf ppf "%gf" f
  | EDouble f ->
    let s = Printf.sprintf "%.17g" f in
    if String.contains s '.' || String.contains s 'e'
       || String.contains s 'n' (* nan/inf *)
    then Format.pp_print_string ppf s
    else Format.fprintf ppf "%s.0" s
  | EChar c -> Format.fprintf ppf "%d" (Char.code c)
  | EBool b -> Format.pp_print_string ppf (if b then "1" else "0")
  | EVar v -> Format.pp_print_string ppf v
  | EBin (op, a, b) ->
    let q = prec_of op in
    if q < p then
      Format.fprintf ppf "(%a %s %a)" pp_expr_prec (q, a)
        (string_of_cbinop op) pp_expr_prec (q + 1, b)
    else
      Format.fprintf ppf "%a %s %a" pp_expr_prec (q, a)
        (string_of_cbinop op) pp_expr_prec (q + 1, b)
  | EUn (op, a) ->
    let s = match op with CNeg -> "-" | CNot -> "!" | CBNot -> "~" in
    Format.fprintf ppf "%s%a" s pp_expr_prec (11, a)
  | EIndex (a, i) ->
    Format.fprintf ppf "%a[%a]" pp_expr_prec (12, a) pp_expr_prec (0, i)
  | ECall (f, args) ->
    Format.fprintf ppf "%s(%a)" f
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         (fun ppf e -> pp_expr_prec ppf (0, e)))
      args
  | ECond (c, a, b) ->
    Format.fprintf ppf "(%a ? %a : %a)" pp_expr_prec (1, c) pp_expr_prec (1, a)
      pp_expr_prec (1, b)
  | ECast (t, e) ->
    Format.fprintf ppf "(%a)%a" pp_cty t pp_expr_prec (11, e)

let pp_expr ppf e = pp_expr_prec ppf (0, e)

let pp_pragma ppf = function
  | Pipeline PipeOn -> Format.fprintf ppf "#pragma ACCEL pipeline"
  | Pipeline PipeOff -> Format.fprintf ppf "#pragma ACCEL pipeline off"
  | Pipeline PipeFlatten -> Format.fprintf ppf "#pragma ACCEL pipeline flatten"
  | Parallel f -> Format.fprintf ppf "#pragma ACCEL parallel factor=%d" f
  | Tile f -> Format.fprintf ppf "#pragma ACCEL tile factor=%d" f

let rec pp_stmt ind ppf s =
  let pad = String.make ind ' ' in
  match s with
  | SDecl (CArr (t, n), name, None) ->
    Format.fprintf ppf "%s%s %s[%d];@\n" pad (base_ty_name t) name n
  | SDecl (CArr (t, n), name, Some e) ->
    Format.fprintf ppf "%s%s %s[%d] = %a;@\n" pad (base_ty_name t) name n
      pp_expr e
  | SDecl (t, name, None) ->
    Format.fprintf ppf "%s%a %s;@\n" pad pp_cty t name
  | SDecl (t, name, Some e) ->
    Format.fprintf ppf "%s%a %s = %a;@\n" pad pp_cty t name pp_expr e
  | SAssign (lv, e) ->
    Format.fprintf ppf "%s%a = %a;@\n" pad pp_expr lv pp_expr e
  | SIf (c, a, []) ->
    Format.fprintf ppf "%sif (%a) {@\n%a%s}@\n" pad pp_expr c
      (pp_stmts (ind + 2)) a pad
  | SIf (c, a, b) ->
    Format.fprintf ppf "%sif (%a) {@\n%a%s} else {@\n%a%s}@\n" pad pp_expr c
      (pp_stmts (ind + 2)) a pad (pp_stmts (ind + 2)) b pad
  | SWhile (c, b) ->
    Format.fprintf ppf "%swhile (%a) {@\n%a%s}@\n" pad pp_expr c
      (pp_stmts (ind + 2)) b pad
  | SFor l ->
    List.iter (fun pr -> Format.fprintf ppf "%s%a@\n" pad pp_pragma pr)
      l.lpragmas;
    let step =
      if l.lstep = 1 then Printf.sprintf "%s++" l.lvar
      else Printf.sprintf "%s += %d" l.lvar l.lstep
    in
    let init =
      if l.ldecl then
        Printf.sprintf "%s %s" (base_ty_name l.lvty) l.lvar
      else l.lvar
    in
    Format.fprintf ppf "%sL%d: for (%s = %a; %s < %a; %s) {@\n%a%s}@\n"
      pad l.lid init pp_expr l.llo l.lvar pp_expr l.lhi step
      (pp_stmts (ind + 2)) l.lbody pad
  | SExpr e -> Format.fprintf ppf "%s%a;@\n" pad pp_expr e
  | SReturn None -> Format.fprintf ppf "%sreturn;@\n" pad
  | SReturn (Some e) -> Format.fprintf ppf "%sreturn %a;@\n" pad pp_expr e

and pp_stmts ind ppf stmts = List.iter (pp_stmt ind ppf) stmts

let pp_param ppf p =
  (match p.cpty with
  | CPtr t -> Format.fprintf ppf "%s *%s" (base_ty_name t) p.cpname
  | t -> Format.fprintf ppf "%a %s" pp_cty t p.cpname);
  match p.cpbitwidth with
  | Some bw -> Format.fprintf ppf " /* bitwidth=%d */" bw
  | None -> ()

let pp_func ppf f =
  let ret =
    match f.cfret with None -> "void" | Some t -> base_ty_name t
  in
  Format.fprintf ppf "%s %s(%a) {@\n%a}@\n" ret f.cfname
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       pp_param)
    f.cfparams (pp_stmts 2) f.cfbody

let pp_prog ppf p =
  Format.fprintf ppf "#include <math.h>@\n@\n";
  List.iter (fun f -> Format.fprintf ppf "%a@\n" pp_func f) p.cfuncs

let to_string p = Format.asprintf "%a" pp_prog p
