type cvalue =
  | VI of int
  | VL of int64
  | VF of float
  | VA of cvalue array

exception C_error of string

let err fmt = Printf.ksprintf (fun m -> raise (C_error m)) fmt

let rec zero_of = function
  | Csyntax.CBool | Csyntax.CChar | Csyntax.CInt -> VI 0
  | Csyntax.CLong -> VL 0L
  | Csyntax.CFloat | Csyntax.CDouble -> VF 0.0
  | Csyntax.CArr (t, n) -> VA (Array.init n (fun _ -> zero_of t))
  | Csyntax.CPtr t -> zero_of t

let alloc t = zero_of t

let rec equal_cvalue a b =
  match (a, b) with
  | VI x, VI y -> x = y
  | VL x, VL y -> Int64.equal x y
  | VF x, VF y -> x = y
  | VA x, VA y ->
    Array.length x = Array.length y
    &&
    let ok = ref true in
    Array.iteri (fun i v -> if not (equal_cvalue v y.(i)) then ok := false) x;
    !ok
  | (VI _ | VL _ | VF _ | VA _), _ -> false

(* ---------- numeric helpers ---------- *)

let truthy = function
  | VI n -> n <> 0
  | VL n -> not (Int64.equal n 0L)
  | VF f -> f <> 0.0
  | VA _ -> err "array in boolean context"

let as_int = function
  | VI n -> n
  | VL n -> Int64.to_int n
  | VF f -> int_of_float f
  | VA _ -> err "array in integer context"

let as_float = function
  | VI n -> float_of_int n
  | VL n -> Int64.to_float n
  | VF f -> f
  | VA _ -> err "array in float context"

let arith op a b =
  match (a, b) with
  | VF _, _ | _, VF _ ->
    let x = as_float a and y = as_float b in
    VF
      (match op with
      | Csyntax.CAdd -> x +. y
      | Csyntax.CSub -> x -. y
      | Csyntax.CMul -> x *. y
      | Csyntax.CDiv -> x /. y
      | Csyntax.CRem -> Float.rem x y
      | _ -> err "invalid float arithmetic")
  | VL _, _ | _, VL _ ->
    let x = (match a with VL v -> v | v -> Int64.of_int (as_int v)) in
    let y = (match b with VL v -> v | v -> Int64.of_int (as_int v)) in
    VL
      (match op with
      | Csyntax.CAdd -> Int64.add x y
      | Csyntax.CSub -> Int64.sub x y
      | Csyntax.CMul -> Int64.mul x y
      | Csyntax.CDiv ->
        if Int64.equal y 0L then err "division by zero" else Int64.div x y
      | Csyntax.CRem ->
        if Int64.equal y 0L then err "modulo by zero" else Int64.rem x y
      | Csyntax.CBAnd -> Int64.logand x y
      | Csyntax.CBOr -> Int64.logor x y
      | Csyntax.CBXor -> Int64.logxor x y
      | Csyntax.CShl -> Int64.shift_left x (Int64.to_int y)
      | Csyntax.CShr -> Int64.shift_right x (Int64.to_int y)
      | _ -> err "invalid long arithmetic")
  | VI x, VI y ->
    VI
      (match op with
      | Csyntax.CAdd -> x + y
      | Csyntax.CSub -> x - y
      | Csyntax.CMul -> x * y
      | Csyntax.CDiv -> if y = 0 then err "division by zero" else x / y
      | Csyntax.CRem -> if y = 0 then err "modulo by zero" else x mod y
      | Csyntax.CBAnd -> x land y
      | Csyntax.CBOr -> x lor y
      | Csyntax.CBXor -> x lxor y
      | Csyntax.CShl -> x lsl y
      | Csyntax.CShr -> x asr y
      | _ -> err "invalid int arithmetic")
  | VA _, _ | _, VA _ -> err "array in arithmetic"

let compare_cv op a b =
  let c =
    match (a, b) with
    | VF _, _ | _, VF _ -> compare (as_float a) (as_float b)
    | VL x, VL y -> Int64.compare x y
    | VL x, v -> Int64.compare x (Int64.of_int (as_int v))
    | v, VL y -> Int64.compare (Int64.of_int (as_int v)) y
    | VI x, VI y -> compare x y
    | VA _, _ | _, VA _ -> err "array comparison"
  in
  let b =
    match op with
    | Csyntax.CLt -> c < 0
    | Csyntax.CLe -> c <= 0
    | Csyntax.CGt -> c > 0
    | Csyntax.CGe -> c >= 0
    | Csyntax.CEq -> c = 0
    | Csyntax.CNe -> c <> 0
    | _ -> err "not a comparison"
  in
  VI (if b then 1 else 0)

let cast t v =
  match t with
  | Csyntax.CBool -> VI (if truthy v then 1 else 0)
  | Csyntax.CChar -> VI (as_int v land 0xff)
  | Csyntax.CInt -> VI (as_int v)
  | Csyntax.CLong -> (
    match v with
    | VL n -> VL n
    | VF f -> VL (Int64.of_float f)
    | VI n -> VL (Int64.of_int n)
    | VA _ -> err "cast of array")
  | Csyntax.CFloat | Csyntax.CDouble -> VF (as_float v)
  | Csyntax.CArr _ | Csyntax.CPtr _ -> err "cast to aggregate type"

let call_math f args =
  match (f, List.map as_float args) with
  | "sqrt", [ x ] -> VF (sqrt x)
  | "exp", [ x ] -> VF (exp x)
  | "log", [ x ] -> VF (log x)
  | "floor", [ x ] -> VF (floor x)
  | "ceil", [ x ] -> VF (ceil x)
  | "fabs", [ x ] -> VF (Float.abs x)
  | "pow", [ x; y ] -> VF (Float.pow x y)
  | "fmin", [ x; y ] -> VF (min x y)
  | "fmax", [ x; y ] -> VF (max x y)
  | "labs", [ x ] -> (
    match args with
    | [ VL n ] -> VL (Int64.abs n)
    | _ -> VF (Float.abs x))
  | "abs", [ x ] -> (
    match args with [ VI n ] -> VI (abs n) | _ -> VF (Float.abs x))
  | _ -> err "unknown C function %s/%d" f (List.length args)

(* ---------- compilation ---------- *)

(* A call's variables live in a frame: one slot per distinct parameter
   name and one per declaration (an [SDecl] or a [for (int v = ...)]
   counter). Compilation resolves every name to its slot under C99
   block scoping: a declaration is visible to the rest of its statement
   list, an [if] branch or loop body is a block of its own, and a
   counter declared in a for-init is visible to the bound and the body
   only. A fresh frame per call keeps recursion correct. Names that
   resolve to nothing compile to code raising "unbound variable" when
   reached, so a program that never reaches them still runs. *)

type frame = cvalue array

type func = {
  fn_params : (string * int) list;  (** Name and slot, parameter order. *)
  mutable fn_slots : int;
  mutable fn_body : frame -> unit;
}

type compiled = {
  funcs : (string * func) list;  (** The first function of each name. *)
  fuel : int ref;  (** Statements and iterations left in this run. *)
}

exception Return of cvalue option

let zero = VI 0
let one = VI 1
let of_bool b = if b then one else zero

let fuel_exhausted = C_error "fuel exhausted"

let[@inline] spend fuel =
  let r = !fuel - 1 in
  fuel := r;
  if r <= 0 then raise fuel_exhausted

let const v = fun _ -> v

let[@inline] test v = match v with VI n -> n <> 0 | v -> truthy v
let[@inline] to_int v = match v with VI n -> n | v -> as_int v

let invoke fn frame =
  match fn.fn_body frame with () -> None | exception Return v -> v

(* Compile-time state of one function: the program's functions, the
   run's fuel and the slots allocated so far. *)
type cx = {
  cx_funcs : (string * func) list;
  cx_fuel : int ref;
  mutable cx_slots : int;
}

let fresh cx =
  let k = cx.cx_slots in
  cx.cx_slots <- k + 1;
  k

let rec expr cx scope (e : Csyntax.cexpr) : frame -> cvalue =
  let expr = expr cx scope in
  match e with
  | Csyntax.EInt n -> const (VI n)
  | Csyntax.ELong n -> const (VL n)
  | Csyntax.EFloat f | Csyntax.EDouble f -> const (VF f)
  | Csyntax.EChar c -> const (VI (Char.code c))
  | Csyntax.EBool b -> const (of_bool b)
  | Csyntax.EVar v -> (
    match List.assoc_opt v scope with
    | Some k -> fun fr -> Array.unsafe_get fr k
    | None -> fun _ -> err "unbound variable %s" v)
  | Csyntax.EBin (Csyntax.CAnd, a, b) ->
    let a = expr a and b = expr b in
    fun fr -> if test (a fr) then of_bool (test (b fr)) else zero
  | Csyntax.EBin (Csyntax.COr, a, b) ->
    let a = expr a and b = expr b in
    fun fr -> if test (a fr) then one else of_bool (test (b fr))
  | Csyntax.EBin
      ( ((Csyntax.CLt | Csyntax.CLe | Csyntax.CGt | Csyntax.CGe
         | Csyntax.CEq | Csyntax.CNe) as op),
        a,
        b ) -> (
    (* C leaves operand order unspecified; here the right operand of
       a comparison or arithmetic operator always runs first, and
       only int and double operands skip [compare_cv] and [arith]. *)
    let a = expr a and b = expr b in
    fun fr ->
      let y = b fr in
      match (a fr, y) with
      | VI x, VI y ->
        of_bool
          (match op with
          | Csyntax.CLt -> x < y
          | Csyntax.CLe -> x <= y
          | Csyntax.CGt -> x > y
          | Csyntax.CGe -> x >= y
          | Csyntax.CEq -> x = y
          | _ -> x <> y)
      | x, y -> compare_cv op x y)
  | Csyntax.EBin (op, a, b) -> (
    let a = expr a and b = expr b in
    fun fr ->
      let y = b fr in
      match (op, a fr, y) with
      | Csyntax.CAdd, VI x, VI y -> VI (x + y)
      | Csyntax.CSub, VI x, VI y -> VI (x - y)
      | Csyntax.CMul, VI x, VI y -> VI (x * y)
      | Csyntax.CAdd, VF x, VF y -> VF (x +. y)
      | Csyntax.CSub, VF x, VF y -> VF (x -. y)
      | Csyntax.CMul, VF x, VF y -> VF (x *. y)
      | op, x, y -> arith op x y)
  | Csyntax.EUn (Csyntax.CNeg, a) -> (
    let a = expr a in
    fun fr ->
      match a fr with
      | VI n -> VI (-n)
      | VL n -> VL (Int64.neg n)
      | VF f -> VF (-.f)
      | VA _ -> err "negation of array")
  | Csyntax.EUn (Csyntax.CNot, a) ->
    let a = expr a in
    fun fr -> of_bool (not (test (a fr)))
  | Csyntax.EUn (Csyntax.CBNot, a) -> (
    let a = expr a in
    fun fr ->
      match a fr with
      | VI n -> VI (lnot n)
      | VL n -> VL (Int64.lognot n)
      | _ -> err "~ on non-integer")
  | Csyntax.EIndex (arr, idx) -> (
    (* The array before its index. *)
    let idx = expr idx in
    let get fr = function
      | VA data ->
        let i = to_int (idx fr) in
        if i < 0 || i >= Array.length data then
          err "index %d out of bounds (len %d)" i (Array.length data);
        Array.unsafe_get data i
      | _ -> err "indexing a non-array"
    in
    let arr = expr arr in
    fun fr -> get fr (arr fr))
  | Csyntax.ECall (f, args) -> (
    let args = List.map expr args in
    match List.assoc_opt f cx.cx_funcs with
    | Some fn -> call fn args
    | None -> fun fr -> call_math f (List.map (fun a -> a fr) args))
  | Csyntax.ECond (c, a, b) ->
    let c = expr c and a = expr a and b = expr b in
    fun fr -> if test (c fr) then a fr else b fr
  | Csyntax.ECast (t, a) ->
    let a = expr a in
    fun fr -> cast t (a fr)

(* A user call: the arguments left to right, then a fresh frame for
   the callee. *)
and call fn args =
  if List.length args <> List.length fn.fn_params then
    (* Pairwise binding: [List.map2] evaluates the pairs it can form,
       then rejects the arity with [Invalid_argument]. *)
    fun fr ->
      ignore (List.map2 (fun _ a -> a fr) fn.fn_params args);
      assert false
  else begin
    let args = Array.of_list args in
    let slots = Array.of_list (List.map snd fn.fn_params) in
    fun fr ->
      let vals = Array.map (fun a -> a fr) args in
      let callee = Array.make fn.fn_slots zero in
      (* Right to left, so a repeated parameter name keeps its first
         argument. *)
      for i = Array.length vals - 1 downto 0 do
        Array.unsafe_set callee slots.(i) vals.(i)
      done;
      match invoke fn callee with Some v -> v | None -> zero
  end

(* Every statement spends one unit of fuel before it runs, and a loop
   one more per iteration, after its condition holds. *)
let rec stmt cx scope (s : Csyntax.cstmt) =
  let fuel = cx.cx_fuel in
  match s with
  | Csyntax.SDecl (t, name, init) ->
    (* The initializer sees the outer binding of [name]. *)
    let init =
      match init with
      | Some e -> expr cx scope e
      | None -> fun _ -> alloc t
    in
    let k = fresh cx in
    ( (name, k) :: scope,
      fun fr ->
        spend fuel;
        Array.unsafe_set fr k (init fr) )
  | Csyntax.SAssign (lv, e) -> (
    (* The value before its target. *)
    let value = expr cx scope e in
    ( scope,
      match lv with
      | Csyntax.EVar name -> (
        match List.assoc_opt name scope with
        | Some k ->
          fun fr ->
            spend fuel;
            Array.unsafe_set fr k (value fr)
        | None ->
          fun fr ->
            spend fuel;
            ignore (value fr);
            err "unbound variable %s" name)
      | Csyntax.EIndex (arr, idx) ->
        let arr = expr cx scope arr and idx = expr cx scope idx in
        fun fr ->
          spend fuel;
          let v = value fr in
          (match arr fr with
          | VA data ->
            let i = to_int (idx fr) in
            if i < 0 || i >= Array.length data then
              err "store index %d out of bounds (len %d)" i
                (Array.length data);
            Array.unsafe_set data i v
          | _ -> err "index-assign on non-array")
      | _ ->
        fun fr ->
          spend fuel;
          ignore (value fr);
          err "invalid lvalue" ))
  | Csyntax.SIf (c, a, b) ->
    let c = expr cx scope c and a = block cx scope a and b = block cx scope b in
    ( scope,
      fun fr ->
        spend fuel;
        if test (c fr) then a fr else b fr )
  | Csyntax.SWhile (c, b) ->
    let c = expr cx scope c and b = block cx scope b in
    ( scope,
      fun fr ->
        spend fuel;
        while test (c fr) do
          spend fuel;
          b fr
        done )
  | Csyntax.SFor l ->
    let lo = expr cx scope l.Csyntax.llo in
    (* The counter carries the loop's declared induction type so that
       arithmetic on it promotes the same way as in the emitted C. *)
    let box =
      match l.Csyntax.lvty with
      | Csyntax.CLong -> fun n -> VL (Int64.of_int n)
      | _ -> fun n -> VI n
    in
    (* [ldecl] loops declare their counter in the for-init, so it gets
       a slot scoped to the loop (C99); otherwise the counter is an
       outer variable whose exit value stays observable after it. *)
    let counter, inner =
      if l.Csyntax.ldecl then
        let k = fresh cx in
        (Some k, (l.Csyntax.lvar, k) :: scope)
      else (List.assoc_opt l.Csyntax.lvar scope, scope)
    in
    let hi = expr cx inner l.Csyntax.lhi
    and body = block cx inner l.Csyntax.lbody
    and step = l.Csyntax.lstep in
    ( scope,
      match counter with
      | None ->
        fun fr ->
          spend fuel;
          ignore (as_int (lo fr));
          err "unbound variable %s" l.Csyntax.lvar
      | Some k ->
        fun fr ->
          spend fuel;
          Array.unsafe_set fr k (box (as_int (lo fr)));
          while to_int (Array.unsafe_get fr k) < to_int (hi fr) do
            spend fuel;
            body fr;
            Array.unsafe_set fr k (box (as_int (Array.unsafe_get fr k) + step))
          done )
  | Csyntax.SExpr e ->
    let e = expr cx scope e in
    ( scope,
      fun fr ->
        spend fuel;
        ignore (e fr) )
  | Csyntax.SReturn None ->
    ( scope,
      fun _ ->
        spend fuel;
        raise_notrace (Return None) )
  | Csyntax.SReturn (Some e) ->
    let e = expr cx scope e in
    ( scope,
      fun fr ->
        spend fuel;
        raise_notrace (Return (Some (e fr))) )

(* A statement list; its declarations end with it. *)
and block cx scope stmts =
  let rec go scope = function
    | [] -> []
    | s :: rest ->
      let scope, code = stmt cx scope s in
      code :: go scope rest
  in
  match go scope stmts with
  | [ code ] -> code
  | codes ->
    let codes = Array.of_list codes in
    fun fr ->
      for i = 0 to Array.length codes - 1 do
        (Array.unsafe_get codes i) fr
      done

let compile (prog : Csyntax.cprog) =
  let fuel = ref 0 in
  let sources =
    List.fold_left
      (fun acc (f : Csyntax.cfunc) ->
        if List.mem_assoc f.Csyntax.cfname acc then acc
        else (f.Csyntax.cfname, f) :: acc)
      [] prog.Csyntax.cfuncs
    |> List.rev
  in
  (* The distinct parameter names take the first slots; every
     function's are known before any body compiles, since bodies may
     call each other. *)
  let params (f : Csyntax.cfunc) =
    List.fold_left
      (fun (acc, next) (p : Csyntax.cparam) ->
        match List.assoc_opt p.Csyntax.cpname acc with
        | Some k -> ((p.Csyntax.cpname, k) :: acc, next)
        | None -> ((p.Csyntax.cpname, next) :: acc, next + 1))
      ([], 0) f.Csyntax.cfparams
  in
  let funcs =
    List.map
      (fun (name, f) ->
        let ps, n = params f in
        (name, { fn_params = List.rev ps; fn_slots = n; fn_body = (fun _ -> ()) }))
      sources
  in
  List.iter2
    (fun (_, (f : Csyntax.cfunc)) (_, fn) ->
      let cx = { cx_funcs = funcs; cx_fuel = fuel; cx_slots = fn.fn_slots } in
      fn.fn_body <- block cx (List.rev fn.fn_params) f.Csyntax.cfbody;
      fn.fn_slots <- cx.cx_slots)
    sources funcs;
  { funcs; fuel }

let run ?(fuel = 200_000_000) c name args =
  c.fuel := fuel;
  match List.assoc_opt name c.funcs with
  | None -> err "no function %s" name
  | Some fn ->
    let frame = Array.make fn.fn_slots zero in
    List.iter
      (fun (p, k) ->
        match List.assoc_opt p args with
        | Some v -> Array.unsafe_set frame k v
        | None -> err "%s: missing argument %s" name p)
      fn.fn_params;
    invoke fn frame

let run_func ?fuel prog name args = run ?fuel (compile prog) name args
