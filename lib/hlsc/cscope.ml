type var =
  | Slot of int
  | Unbound of string

type expr =
  | Int of int
  | Long of int64
  | Float of float
  | Var of var
  | Bin of Csyntax.cbinop * expr * expr
  | Un of Csyntax.cunop * expr
  | Index of expr * expr
  | Call of func * expr list
  | Math of string * expr list
  | Cond of expr * expr * expr
  | Cast of Csyntax.cty * expr

and stmt =
  | Decl of Csyntax.cty * string * int * expr option
  | Assign of var * expr
  | Store of expr * expr * expr
  | Bad_assign of expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of loop
  | Expr of expr
  | Return of expr option

and loop = {
  counter : var;
  declared : bool;
  vty : Csyntax.cty;
  lo : expr;
  hi : expr;
  step : int;
  body : stmt list;
}

and func = {
  name : string;
  params : (Csyntax.cparam * int) list;
  mutable slots : int;
  mutable fbody : stmt list;
}

(* Resolution state of one function body: the program's functions and
   the slots allocated so far. A scope maps names to slots, innermost
   binding first. *)
type cx = {
  funcs : (string * func) list;
  mutable next : int;
}

let fresh cx =
  let k = cx.next in
  cx.next <- k + 1;
  k

let lookup scope v =
  match List.assoc_opt v scope with Some k -> Slot k | None -> Unbound v

let rec expr cx scope (e : Csyntax.cexpr) =
  let expr = expr cx scope in
  match e with
  | Csyntax.EInt n -> Int n
  | Csyntax.ELong n -> Long n
  | Csyntax.EFloat f | Csyntax.EDouble f -> Float f
  | Csyntax.EChar c -> Int (Char.code c)
  | Csyntax.EBool b -> Int (if b then 1 else 0)
  | Csyntax.EVar v -> Var (lookup scope v)
  | Csyntax.EBin (op, a, b) -> Bin (op, expr a, expr b)
  | Csyntax.EUn (op, a) -> Un (op, expr a)
  | Csyntax.EIndex (a, i) -> Index (expr a, expr i)
  | Csyntax.ECall (f, args) -> (
    let args = List.map expr args in
    match List.assoc_opt f cx.funcs with
    | Some fn -> Call (fn, args)
    | None -> Math (f, args))
  | Csyntax.ECond (c, a, b) -> Cond (expr c, expr a, expr b)
  | Csyntax.ECast (t, a) -> Cast (t, expr a)

let rec stmt cx scope (s : Csyntax.cstmt) =
  match s with
  | Csyntax.SDecl (t, name, init) ->
    let init = Option.map (expr cx scope) init in
    let k = fresh cx in
    ((name, k) :: scope, Decl (t, name, k, init))
  | Csyntax.SAssign (lv, e) ->
    let e = expr cx scope e in
    ( scope,
      match lv with
      | Csyntax.EVar name -> Assign (lookup scope name, e)
      | Csyntax.EIndex (a, i) -> Store (expr cx scope a, expr cx scope i, e)
      | _ -> Bad_assign e )
  | Csyntax.SIf (c, a, b) ->
    let c = expr cx scope c in
    let a = block cx scope a in
    (scope, If (c, a, block cx scope b))
  | Csyntax.SWhile (c, b) ->
    let c = expr cx scope c in
    (scope, While (c, block cx scope b))
  | Csyntax.SFor l ->
    let lo = expr cx scope l.Csyntax.llo in
    let counter, inner =
      if l.Csyntax.ldecl then
        let k = fresh cx in
        (Slot k, (l.Csyntax.lvar, k) :: scope)
      else (lookup scope l.Csyntax.lvar, scope)
    in
    let hi = expr cx inner l.Csyntax.lhi in
    ( scope,
      For
        { counter;
          declared = l.Csyntax.ldecl;
          vty = l.Csyntax.lvty;
          lo;
          hi;
          step = l.Csyntax.lstep;
          body = block cx inner l.Csyntax.lbody } )
  | Csyntax.SExpr e -> (scope, Expr (expr cx scope e))
  | Csyntax.SReturn e -> (scope, Return (Option.map (expr cx scope) e))

(* A statement list; its declarations end with it. *)
and block cx scope = function
  | [] -> []
  | s :: rest ->
    let scope, s = stmt cx scope s in
    s :: block cx scope rest

let resolve (prog : Csyntax.cprog) =
  let sources =
    List.fold_left
      (fun acc (f : Csyntax.cfunc) ->
        if List.mem_assoc f.Csyntax.cfname acc then acc
        else (f.Csyntax.cfname, f) :: acc)
      [] prog.Csyntax.cfuncs
    |> List.rev
  in
  (* The distinct parameter names take the first slots; every
     function's are known before any body resolves, since bodies may
     call each other. *)
  let params (f : Csyntax.cfunc) =
    let ps, n =
      List.fold_left
        (fun (acc, next) (p : Csyntax.cparam) ->
          match
            List.find_opt
              (fun ((q : Csyntax.cparam), _) ->
                String.equal q.Csyntax.cpname p.Csyntax.cpname)
              acc
          with
          | Some (_, k) -> ((p, k) :: acc, next)
          | None -> ((p, next) :: acc, next + 1))
        ([], 0) f.Csyntax.cfparams
    in
    (List.rev ps, n)
  in
  let funcs =
    List.map
      (fun (name, f) ->
        let params, slots = params f in
        (name, { name; params; slots; fbody = [] }))
      sources
  in
  List.iter2
    (fun (_, (f : Csyntax.cfunc)) (_, fn) ->
      let cx = { funcs; next = fn.slots } in
      let scope =
        List.rev_map (fun ((p : Csyntax.cparam), k) -> (p.Csyntax.cpname, k))
          fn.params
      in
      fn.fbody <- block cx scope f.Csyntax.cfbody;
      fn.slots <- cx.next)
    sources funcs;
  List.map snd funcs
