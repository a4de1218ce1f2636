module Ast = S2fa_scala.Ast

type value =
  | VInt of int
  | VLong of int64
  | VFloat of float
  | VDouble of float
  | VBool of bool
  | VChar of char
  | VUnit
  | VArr of varray
  | VTuple of value array

and varray = { aelem : Ast.ty; adata : value array }

exception Runtime_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

let rec default_value = function
  | Ast.TInt -> VInt 0
  | Ast.TLong -> VLong 0L
  | Ast.TFloat -> VFloat 0.0
  | Ast.TDouble -> VDouble 0.0
  | Ast.TBoolean -> VBool false
  | Ast.TChar -> VChar '\000'
  | Ast.TUnit -> VUnit
  | Ast.TString -> default_value (Ast.TArray Ast.TChar)
  | Ast.TArray _ | Ast.TTuple _ | Ast.TClass _ ->
    err "no default value for reference type"

let value_of_lit = function
  | Ast.LInt n -> VInt n
  | Ast.LLong n -> VLong n
  | Ast.LFloat f -> VFloat f
  | Ast.LDouble f -> VDouble f
  | Ast.LBool b -> VBool b
  | Ast.LChar c -> VChar c
  | Ast.LString s ->
    VArr
      { aelem = Ast.TChar;
        adata = Array.init (String.length s) (fun i -> VChar s.[i]) }
  | Ast.LUnit -> VUnit

let rec alloc_array elem dims =
  match dims with
  | [] -> err "alloc_array: no dimensions"
  | [ n ] ->
    let zero =
      match elem with
      | Ast.TArray _ | Ast.TTuple _ | Ast.TClass _ | Ast.TString ->
        err "alloc_array: nested reference elements need explicit dims"
      | t -> default_value t
    in
    VArr { aelem = elem; adata = Array.make n zero }
  | n :: rest ->
    let inner_elem =
      match elem with
      | Ast.TArray t -> t
      | _ -> err "alloc_array: dims deeper than element type"
    in
    VArr
      { aelem = elem;
        adata = Array.init n (fun _ -> alloc_array inner_elem rest) }

let rec equal_value a b =
  match (a, b) with
  | VInt x, VInt y -> x = y
  | VLong x, VLong y -> Int64.equal x y
  | VFloat x, VFloat y -> x = y
  | VDouble x, VDouble y -> x = y
  | VBool x, VBool y -> x = y
  | VChar x, VChar y -> x = y
  | VUnit, VUnit -> true
  | VArr x, VArr y ->
    Array.length x.adata = Array.length y.adata
    && (let ok = ref true in
        Array.iteri
          (fun i v -> if not (equal_value v y.adata.(i)) then ok := false)
          x.adata;
        !ok)
  | VTuple x, VTuple y ->
    Array.length x = Array.length y
    && (let ok = ref true in
        Array.iteri
          (fun i v -> if not (equal_value v y.(i)) then ok := false)
          x;
        !ok)
  | ( ( VInt _ | VLong _ | VFloat _ | VDouble _ | VBool _ | VChar _ | VUnit
      | VArr _ | VTuple _ ),
      _ ) ->
    false

let rec pp_value ppf = function
  | VInt n -> Format.fprintf ppf "%d" n
  | VLong n -> Format.fprintf ppf "%LdL" n
  | VFloat f -> Format.fprintf ppf "%gf" f
  | VDouble f -> Format.fprintf ppf "%g" f
  | VBool b -> Format.fprintf ppf "%b" b
  | VChar c -> Format.fprintf ppf "%C" c
  | VUnit -> Format.fprintf ppf "()"
  | VArr a ->
    Format.fprintf ppf "[|%a|]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         pp_value)
      (Array.to_list a.adata)
  | VTuple t ->
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         pp_value)
      (Array.to_list t)

type instance = { icls : Insn.cls; ifields : (string * value) list }

type result = { rvalue : value; rcycles : float; rinsns : int }

(* ---------- arithmetic ---------- *)

let as_int = function
  | VInt n -> n
  | VChar c -> Char.code c
  | VBool b -> if b then 1 else 0
  | v -> err "expected Int, got %s" (Format.asprintf "%a" pp_value v)

let as_float = function
  | VFloat f | VDouble f -> f
  | v -> err "expected floating value, got %s" (Format.asprintf "%a" pp_value v)

let as_long = function
  | VLong n -> n
  | v -> err "expected Long, got %s" (Format.asprintf "%a" pp_value v)

let as_bool = function
  | VBool b -> b
  | v -> err "expected Boolean, got %s" (Format.asprintf "%a" pp_value v)

let as_arr = function
  | VArr a -> a
  | v -> err "expected array, got %s" (Format.asprintf "%a" pp_value v)

let int_binop op x y =
  match op with
  | Ast.Add -> x + y
  | Ast.Sub -> x - y
  | Ast.Mul -> x * y
  | Ast.Div -> if y = 0 then err "division by zero" else x / y
  | Ast.Rem -> if y = 0 then err "modulo by zero" else x mod y
  | Ast.BAnd -> x land y
  | Ast.BOr -> x lor y
  | Ast.BXor -> x lxor y
  | Ast.Shl -> x lsl y
  | Ast.Shr -> x asr y
  | Ast.Lshr -> x lsr y
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne | Ast.And | Ast.Or ->
    err "comparison in arithmetic position"

let float_binop op x y =
  match op with
  | Ast.Add -> x +. y
  | Ast.Sub -> x -. y
  | Ast.Mul -> x *. y
  | Ast.Div -> x /. y
  | Ast.Rem -> Float.rem x y
  | _ -> err "invalid floating binop"

let long_binop op x y =
  match op with
  | Ast.Add -> Int64.add x y
  | Ast.Sub -> Int64.sub x y
  | Ast.Mul -> Int64.mul x y
  | Ast.Div -> if Int64.equal y 0L then err "division by zero" else Int64.div x y
  | Ast.Rem -> if Int64.equal y 0L then err "modulo by zero" else Int64.rem x y
  | Ast.BAnd -> Int64.logand x y
  | Ast.BOr -> Int64.logor x y
  | Ast.BXor -> Int64.logxor x y
  | Ast.Shl -> Int64.shift_left x (Int64.to_int y)
  | Ast.Shr -> Int64.shift_right x (Int64.to_int y)
  | Ast.Lshr -> Int64.shift_right_logical x (Int64.to_int y)
  | _ -> err "invalid long binop"

(* JVM lshl/lshr/lushr pop an [int] shift count under the long operand,
   and typecheck widens the count only to Int accordingly — so for long
   shifts the right operand is legitimately a VInt. *)
let is_shift = function Ast.Shl | Ast.Shr | Ast.Lshr -> true | _ -> false

let as_shift_count = function
  | VInt n -> Int64.of_int n
  | VLong n -> n
  | v -> err "expected shift count, got %s" (Format.asprintf "%a" pp_value v)

let eval_bin ty op a b =
  match ty with
  | Ast.TInt | Ast.TChar | Ast.TBoolean ->
    VInt (int_binop op (as_int a) (as_int b))
  | Ast.TLong when is_shift op ->
    VLong (long_binop op (as_long a) (as_shift_count b))
  | Ast.TLong -> (
    match (a, b) with
    | VLong x, VLong y -> VLong (long_binop op x y)
    | _ -> VLong (long_binop op (as_long a) (as_long b)))
  | Ast.TFloat -> VFloat (float_binop op (as_float a) (as_float b))
  | Ast.TDouble -> VDouble (float_binop op (as_float a) (as_float b))
  | t -> err "binop on type %s" (Ast.string_of_ty t)

let compare_values ty cond a b =
  let c =
    match ty with
    | Ast.TInt | Ast.TChar -> compare (as_int a) (as_int b)
    | Ast.TBoolean -> compare (as_bool a) (as_bool b)
    | Ast.TLong -> Int64.compare (as_long a) (as_long b)
    | Ast.TFloat | Ast.TDouble -> compare (as_float a) (as_float b)
    | t -> err "comparison on type %s" (Ast.string_of_ty t)
  in
  match cond with
  | Insn.Clt -> c < 0
  | Insn.Cle -> c <= 0
  | Insn.Cgt -> c > 0
  | Insn.Cge -> c >= 0
  | Insn.Ceq -> c = 0
  | Insn.Cne -> c <> 0

let convert from_ty to_ty v =
  let to_float () =
    match v with
    | VInt n -> float_of_int n
    | VChar c -> float_of_int (Char.code c)
    | VLong n -> Int64.to_float n
    | VFloat f | VDouble f -> f
    | _ -> err "conv: non-numeric"
  in
  let to_int () =
    match v with
    | VInt n -> n
    | VChar c -> Char.code c
    | VLong n -> Int64.to_int n
    | VFloat f | VDouble f -> int_of_float f
    | _ -> err "conv: non-numeric"
  in
  ignore from_ty;
  match to_ty with
  | Ast.TInt -> VInt (to_int ())
  | Ast.TLong -> (
    match v with
    | VLong n -> VLong n
    | VFloat f | VDouble f -> VLong (Int64.of_float f)
    | _ -> VLong (Int64.of_int (to_int ())))
  | Ast.TFloat -> VFloat (to_float ())
  | Ast.TDouble -> VDouble (to_float ())
  | Ast.TChar -> VChar (Char.chr (to_int () land 0xff))
  | t -> err "conv to %s" (Ast.string_of_ty t)

let eval_math f args =
  match (f, args) with
  | "sqrt", [ x ] -> VDouble (sqrt (as_float x))
  | "exp", [ x ] -> VDouble (exp (as_float x))
  | "log", [ x ] -> VDouble (log (as_float x))
  | "floor", [ x ] -> VDouble (floor (as_float x))
  | "ceil", [ x ] -> VDouble (ceil (as_float x))
  | "pow", [ x; y ] -> VDouble (Float.pow (as_float x) (as_float y))
  | "abs", [ VInt n ] -> VInt (abs n)
  | "abs", [ VLong n ] -> VLong (Int64.abs n)
  | "abs", [ (VFloat _ | VDouble _) as x ] -> VDouble (Float.abs (as_float x))
  | "min", [ VInt a; VInt b ] -> VInt (min a b)
  | "max", [ VInt a; VInt b ] -> VInt (max a b)
  | "min", [ VLong a; VLong b ] -> VLong (if Int64.compare a b <= 0 then a else b)
  | "max", [ VLong a; VLong b ] -> VLong (if Int64.compare a b >= 0 then a else b)
  | "min", [ a; b ] -> VDouble (min (as_float a) (as_float b))
  | "max", [ a; b ] -> VDouble (max (as_float a) (as_float b))
  | _ -> err "math.%s: bad arguments" f

(* ---------- execution ---------- *)

(* Cycles per instruction category: a JIT-compiled JVM thread's cheap
   register traffic, expensive division and transcendentals, and the
   visible cost of tuple allocation (boxing) and virtual calls. *)
let insn_cost = function
  | Insn.Ldc _ -> 1.0
  | Insn.Load _ | Insn.Store _ -> 1.0
  | Insn.ALoad | Insn.AStore -> 4.0
  | Insn.ArrayLength -> 1.0
  | Insn.NewArr (_, dims) -> float_of_int (List.fold_left ( * ) 1 dims)
  | Insn.NewTup _ -> 24.0
  | Insn.TupGet _ -> 4.0
  | Insn.GetField _ -> 3.0
  | Insn.Bin (ty, op) -> (
    match (ty, op) with
    | (Ast.TFloat | Ast.TDouble), Ast.Mul -> 4.0
    | (Ast.TFloat | Ast.TDouble), (Ast.Div | Ast.Rem) -> 22.0
    | (Ast.TFloat | Ast.TDouble), _ -> 3.0
    | _, Ast.Mul -> 3.0
    | _, (Ast.Div | Ast.Rem) -> 24.0
    | _, _ -> 1.0)
  | Insn.Un _ -> 1.0
  | Insn.Conv _ -> 2.0
  | Insn.MathOp f -> (
    match f with
    | "sqrt" -> 30.0
    | "exp" | "log" -> 60.0
    | "pow" -> 90.0
    | "abs" | "min" | "max" -> 2.0
    | "floor" | "ceil" -> 4.0
    | _ -> 20.0)
  | Insn.Invoke _ -> 40.0
  | Insn.CmpJmp _ | Insn.IfFalse _ | Insn.Goto _ -> 2.0
  | Insn.Ret | Insn.RetVoid -> 2.0
  | Insn.Dup | Insn.Pop -> 1.0

let run_method ?(fuel = 200_000_000) inst name args =
  let cycles = ref 0.0 in
  let insns = ref 0 in
  let remaining = ref fuel in
  let rec exec_method mname margs =
    let m =
      match Insn.find_jmethod inst.icls mname with
      | Some m -> m
      | None -> err "no method %s" mname
    in
    if List.length margs <> List.length m.Insn.jargs then
      err "%s: arity mismatch" mname;
    let locals = Array.make (max 1 m.Insn.jslots) VUnit in
    List.iteri (fun i v -> locals.(i) <- v) margs;
    let stack = ref [] in
    let push v = stack := v :: !stack in
    let pop () =
      match !stack with
      | v :: rest ->
        stack := rest;
        v
      | [] -> err "%s: operand stack underflow" mname
    in
    let code = m.Insn.jcode in
    let rec step pc =
      decr remaining;
      if !remaining <= 0 then err "fuel exhausted (infinite loop?)";
      incr insns;
      let ins = code.(pc) in
      cycles := !cycles +. insn_cost ins;
      match ins with
      | Insn.Ldc l ->
        push (value_of_lit l);
        step (pc + 1)
      | Insn.Load s ->
        push locals.(s);
        step (pc + 1)
      | Insn.Store s ->
        locals.(s) <- pop ();
        step (pc + 1)
      | Insn.ALoad ->
        let idx = as_int (pop ()) in
        let arr = as_arr (pop ()) in
        if idx < 0 || idx >= Array.length arr.adata then
          err "%s: index %d out of bounds (len %d)" mname idx
            (Array.length arr.adata);
        push arr.adata.(idx);
        step (pc + 1)
      | Insn.AStore ->
        let v = pop () in
        let idx = as_int (pop ()) in
        let arr = as_arr (pop ()) in
        if idx < 0 || idx >= Array.length arr.adata then
          err "%s: index %d out of bounds (len %d)" mname idx
            (Array.length arr.adata);
        arr.adata.(idx) <- v;
        step (pc + 1)
      | Insn.ArrayLength ->
        let arr = as_arr (pop ()) in
        push (VInt (Array.length arr.adata));
        step (pc + 1)
      | Insn.NewArr (t, dims) ->
        push (alloc_array t dims);
        step (pc + 1)
      | Insn.NewTup n ->
        let vals = Array.make n VUnit in
        for i = n - 1 downto 0 do
          vals.(i) <- pop ()
        done;
        push (VTuple vals);
        step (pc + 1)
      | Insn.TupGet i -> (
        match pop () with
        | VTuple t when i < Array.length t ->
          push t.(i);
          step (pc + 1)
        | _ -> err "%s: tupget on non-tuple" mname)
      | Insn.GetField f -> (
        match List.assoc_opt f inst.ifields with
        | Some v ->
          push v;
          step (pc + 1)
        | None -> err "%s: no field %s" mname f)
      | Insn.Bin (ty, op) ->
        let b = pop () in
        let a = pop () in
        push (eval_bin ty op a b);
        step (pc + 1)
      | Insn.Un (ty, op) -> (
        let a = pop () in
        (match (op, ty) with
        | Ast.Neg, (Ast.TFloat) -> push (VFloat (-.as_float a))
        | Ast.Neg, (Ast.TDouble) -> push (VDouble (-.as_float a))
        | Ast.Neg, Ast.TLong -> push (VLong (Int64.neg (as_long a)))
        | Ast.Neg, _ -> push (VInt (-as_int a))
        | Ast.Not, _ -> push (VBool (not (as_bool a)))
        | Ast.BNot, Ast.TLong -> push (VLong (Int64.lognot (as_long a)))
        | Ast.BNot, _ -> push (VInt (lnot (as_int a))));
        step (pc + 1))
      | Insn.Conv (a, b) ->
        let v = pop () in
        push (convert a b v);
        step (pc + 1)
      | Insn.MathOp f ->
        let n = Insn.math_arity f in
        let args = List.init n (fun _ -> pop ()) in
        push (eval_math f (List.rev args));
        step (pc + 1)
      | Insn.Invoke (callee, n) ->
        let args = List.init n (fun _ -> pop ()) in
        let res = exec_method callee (List.rev args) in
        (match res with VUnit -> () | v -> push v);
        step (pc + 1)
      | Insn.CmpJmp (ty, cond, l) ->
        let b = pop () in
        let a = pop () in
        if compare_values ty cond a b then step l else step (pc + 1)
      | Insn.IfFalse l ->
        if as_bool (pop ()) then step (pc + 1) else step l
      | Insn.Goto l -> step l
      | Insn.Ret -> pop ()
      | Insn.RetVoid -> VUnit
      | Insn.Dup ->
        let v = pop () in
        push v;
        push v;
        step (pc + 1)
      | Insn.Pop ->
        ignore (pop ());
        step (pc + 1)
    in
    step 0
  in
  let rvalue = exec_method name args in
  S2fa_obs.Obs.count_by !insns "jvm.insns";
  { rvalue; rcycles = !cycles; rinsns = !insns }
