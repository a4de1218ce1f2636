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

(* {!Cscope.resolve} maps every variable to a slot of a per-call frame
   and every user call to its callee; compilation then turns each
   statement and operator into a closure of its own. A fresh frame per
   call keeps recursion correct. Names that resolve to nothing compile
   to code raising "unbound variable" when reached, so a program that
   never reaches them still runs. *)

type frame = cvalue array

type func = {
  fn_params : (string * int) list;  (** Name and slot, parameter order. *)
  fn_slots : int;
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

let rec expr funcs (e : Cscope.expr) : frame -> cvalue =
  let expr = expr funcs in
  match e with
  | Cscope.Int n -> const (VI n)
  | Cscope.Long n -> const (VL n)
  | Cscope.Float f -> const (VF f)
  | Cscope.Var (Cscope.Slot k) -> fun fr -> Array.unsafe_get fr k
  | Cscope.Var (Cscope.Unbound v) -> fun _ -> err "unbound variable %s" v
  | Cscope.Bin (Csyntax.CAnd, a, b) ->
    let a = expr a and b = expr b in
    fun fr -> if test (a fr) then of_bool (test (b fr)) else zero
  | Cscope.Bin (Csyntax.COr, a, b) ->
    let a = expr a and b = expr b in
    fun fr -> if test (a fr) then one else of_bool (test (b fr))
  | Cscope.Bin
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
  | Cscope.Bin (op, a, b) -> (
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
  | Cscope.Un (Csyntax.CNeg, a) -> (
    let a = expr a in
    fun fr ->
      match a fr with
      | VI n -> VI (-n)
      | VL n -> VL (Int64.neg n)
      | VF f -> VF (-.f)
      | VA _ -> err "negation of array")
  | Cscope.Un (Csyntax.CNot, a) ->
    let a = expr a in
    fun fr -> of_bool (not (test (a fr)))
  | Cscope.Un (Csyntax.CBNot, a) -> (
    let a = expr a in
    fun fr ->
      match a fr with
      | VI n -> VI (lnot n)
      | VL n -> VL (Int64.lognot n)
      | _ -> err "~ on non-integer")
  | Cscope.Index (arr, idx) -> (
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
  | Cscope.Call (fn, args) ->
    call (List.assoc fn.Cscope.name funcs) (List.map expr args)
  | Cscope.Math (f, args) ->
    let args = List.map expr args in
    fun fr -> call_math f (List.map (fun a -> a fr) args)
  | Cscope.Cond (c, a, b) ->
    let c = expr c and a = expr a and b = expr b in
    fun fr -> if test (c fr) then a fr else b fr
  | Cscope.Cast (t, a) ->
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
let rec stmt fuel funcs (s : Cscope.stmt) =
  let expr = expr funcs and block = block fuel funcs in
  match s with
  | Cscope.Decl (t, _, k, init) ->
    let init =
      match init with
      | Some e -> expr e
      | None -> fun _ -> alloc t
    in
    fun fr ->
      spend fuel;
      Array.unsafe_set fr k (init fr)
  | Cscope.Assign (Cscope.Slot k, e) ->
    let value = expr e in
    fun fr ->
      spend fuel;
      Array.unsafe_set fr k (value fr)
  | Cscope.Assign (Cscope.Unbound name, e) ->
    let value = expr e in
    fun fr ->
      spend fuel;
      ignore (value fr);
      err "unbound variable %s" name
  | Cscope.Store (arr, idx, e) ->
    let value = expr e in
    let arr = expr arr and idx = expr idx in
    fun fr ->
      spend fuel;
      (* The value before its target. *)
      let v = value fr in
      (match arr fr with
      | VA data ->
        let i = to_int (idx fr) in
        if i < 0 || i >= Array.length data then
          err "store index %d out of bounds (len %d)" i (Array.length data);
        Array.unsafe_set data i v
      | _ -> err "index-assign on non-array")
  | Cscope.Bad_assign e ->
    let value = expr e in
    fun fr ->
      spend fuel;
      ignore (value fr);
      err "invalid lvalue"
  | Cscope.If (c, a, b) ->
    let c = expr c and a = block a and b = block b in
    fun fr ->
      spend fuel;
      if test (c fr) then a fr else b fr
  | Cscope.While (c, b) ->
    let c = expr c and b = block b in
    fun fr ->
      spend fuel;
      while test (c fr) do
        spend fuel;
        b fr
      done
  | Cscope.For l -> (
    let lo = expr l.Cscope.lo in
    (* The counter carries the loop's declared induction type so that
       arithmetic on it promotes the same way as in the emitted C. *)
    let box =
      match l.Cscope.vty with
      | Csyntax.CLong -> fun n -> VL (Int64.of_int n)
      | _ -> fun n -> VI n
    in
    let hi = expr l.Cscope.hi
    and body = block l.Cscope.body
    and step = l.Cscope.step in
    match l.Cscope.counter with
    | Cscope.Unbound name ->
      fun fr ->
        spend fuel;
        ignore (as_int (lo fr));
        err "unbound variable %s" name
    | Cscope.Slot k ->
      fun fr ->
        spend fuel;
        Array.unsafe_set fr k (box (as_int (lo fr)));
        while to_int (Array.unsafe_get fr k) < to_int (hi fr) do
          spend fuel;
          body fr;
          Array.unsafe_set fr k (box (as_int (Array.unsafe_get fr k) + step))
        done)
  | Cscope.Expr e ->
    let e = expr e in
    fun fr ->
      spend fuel;
      ignore (e fr)
  | Cscope.Return None ->
    fun _ ->
      spend fuel;
      raise_notrace (Return None)
  | Cscope.Return (Some e) ->
    let e = expr e in
    fun fr ->
      spend fuel;
      raise_notrace (Return (Some (e fr)))

and block fuel funcs stmts =
  match List.map (stmt fuel funcs) stmts with
  | [ code ] -> code
  | codes ->
    let codes = Array.of_list codes in
    fun fr ->
      for i = 0 to Array.length codes - 1 do
        (Array.unsafe_get codes i) fr
      done

let compile (prog : Csyntax.cprog) =
  let fuel = ref 0 in
  let resolved = Cscope.resolve prog in
  let funcs =
    List.map
      (fun (fn : Cscope.func) ->
        ( fn.Cscope.name,
          { fn_params =
              List.map
                (fun ((p : Csyntax.cparam), k) -> (p.Csyntax.cpname, k))
                fn.Cscope.params;
            fn_slots = fn.Cscope.slots;
            fn_body = (fun _ -> ()) } ))
      resolved
  in
  List.iter2
    (fun (fn : Cscope.func) (_, f) -> f.fn_body <- block fuel funcs fn.Cscope.fbody)
    resolved funcs;
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
    let r = invoke fn frame in
    S2fa_obs.Obs.count_by (fuel - !(c.fuel)) "cinterp.fuel";
    r

let run_func ?fuel prog name args = run ?fuel (compile prog) name args
