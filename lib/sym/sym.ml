module Csyntax = S2fa_hlsc.Csyntax
module Cinterp = S2fa_hlsc.Cinterp
module Canalysis = S2fa_hlsc.Canalysis
module Cscope = S2fa_hlsc.Cscope
module Rng = S2fa_util.Rng
open Csyntax

(* Raised whenever execution leaves the provable fragment (symbolic loop
   bound, budget exhausted, unsupported construct). Converted to
   [Unknown] at the API boundary: giving up is always sound. *)
exception Give_up of string

let give_up fmt = Printf.ksprintf (fun m -> raise (Give_up m)) fmt

(* ---------- terms ---------- *)

(* Value class of a term, mirroring the interpreter's cvalue classes.
   Class propagation in the C dialect depends only on operand classes,
   never on values, so one static class per term is exact. *)
type vcls = KI | KL | KF

(* Widening/narrowing conversions that survive normalization. Lossless
   embeddings of concrete values fold away; these mark the rest. *)
type conv = IofL | IofF | LofI | LofF | FofI | FofL

(* [hash] is [Node.hash node], kept for the intern table's probes and
   growth. [fp] memoises the coverage fingerprint hash of a composite
   term at each depth; see [fingerprint]. *)
type term = { id : int; hash : int; node : node; mutable fp : int array }

and node =
  | TI of int
  | TL of int64
  | TF of float
  | TSym of vcls * string
  | TBin of vcls * cbinop * term * term
  | TUn of vcls * cunop * term
  | TConv of conv * term
  | TCall of vcls * string * term list
  | TIte of vcls * term * term * term

let cls_of t =
  match t.node with
  | TI _ -> KI
  | TL _ -> KL
  | TF _ -> KF
  | TSym (c, _) -> c
  | TBin (c, _, _, _) | TUn (c, _, _) | TCall (c, _, _) | TIte (c, _, _, _) ->
    c
  | TConv ((IofL | IofF), _) -> KI
  | TConv ((LofI | LofF), _) -> KL
  | TConv ((FofI | FofL), _) -> KF

(* Hash-consing, keyed on the node itself. Children are already
   interned, so they compare physically and hash by id. The class of
   every composite node is derived deterministically from its children
   and operator, so only symbolic leaves compare it. Floats compare by
   bit pattern: NaN meets NaN, and 0.0 stays apart from -0.0. *)
module Node = struct
  let equal a b =
    match (a, b) with
    | TI x, TI y -> x = y
    | TL x, TL y -> Int64.equal x y
    | TF x, TF y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | TSym (c, s), TSym (c', s') -> c == c' && String.equal s s'
    | TBin (_, op, a, b), TBin (_, op', a', b') ->
      op == op' && a == a' && b == b'
    | TUn (_, op, a), TUn (_, op', a') -> op == op' && a == a'
    | TConv (c, a), TConv (c', a') -> c == c' && a == a'
    | TCall (_, f, args), TCall (_, f', args') ->
      String.equal f f' && List.equal ( == ) args args'
    | TIte (_, c, a, b), TIte (_, c', a', b') -> c == c' && a == a' && b == b'
    | (TI _ | TL _ | TF _ | TSym _ | TBin _ | TUn _ | TConv _ | TCall _
      | TIte _), _ ->
      false

  let binop_code = function
    | CAdd -> 0 | CSub -> 1 | CMul -> 2 | CDiv -> 3 | CRem -> 4
    | CLt -> 5 | CLe -> 6 | CGt -> 7 | CGe -> 8 | CEq -> 9 | CNe -> 10
    | CAnd -> 11 | COr -> 12
    | CBAnd -> 13 | CBOr -> 14 | CBXor -> 15 | CShl -> 16 | CShr -> 17

  let mix h x = (h lxor x) * 0x100000001b3

  let hash n =
    let h =
      match n with
      | TI n -> n
      | TL n -> mix 1 (Int64.to_int n)
      | TF f -> mix 2 (Int64.to_int (Int64.bits_of_float f))
      | TSym (_, s) -> mix 3 (Hashtbl.hash s)
      | TBin (_, op, a, b) -> mix (mix (mix 4 (binop_code op)) a.id) b.id
      | TUn (_, op, a) ->
        mix (mix 5 (match op with CNeg -> 0 | CNot -> 1 | CBNot -> 2)) a.id
      | TConv (c, a) ->
        mix
          (mix 6
             (match c with
             | IofL -> 0 | IofF -> 1 | LofI -> 2 | LofF -> 3 | FofI -> 4
             | FofL -> 5))
          a.id
      | TCall (_, f, args) ->
        List.fold_left (fun h a -> mix h a.id) (mix 7 (Hashtbl.hash f)) args
      | TIte (_, c, a, b) -> mix (mix (mix 8 c.id) a.id) b.id
    in
    h lxor (h lsr 31)
end

type budget = { bg_steps : int; bg_nodes : int; bg_trip : int }

let default_budget = { bg_steps = 4_000_000; bg_nodes = 2_000_000; bg_trip = 8192 }

(* The intern table is open-addressed: [slots] holds every term at or
   after its home slot, probed linearly, with [free] in the empty slots.
   A term's home slot is the top [bits] bits of its hash times an odd
   constant (0x9E3779B97F4A7C15, 2^64 over the golden ratio, cut to
   OCaml's 63-bit ints): [Node.hash]'s low bits alone put consecutive
   [TI] constants in consecutive slots, where the probes of one cluster
   run into the next. The table doubles once more than 3/4 of it is
   full, moving each term by its stored hash. *)
type ctx = {
  mutable slots : term array;
  mutable bits : int;
  mutable next_id : int;  (* terms interned, and the next term's id *)
  mutable steps_left : int;
  mutable nodes_left : int;
  cov : (int, unit) Hashtbl.t;
  max_trip : int;
}

let no_fp = [||]

let free = { id = -1; hash = 0; node = TI 0; fp = no_fp }

let home bits h = (h * 0x1E3779B97F4A7C15) lsr (Sys.int_size - bits)

let new_ctx (b : budget) =
  { slots = Array.make 4096 free;
    bits = 12;
    next_id = 0;
    steps_left = b.bg_steps;
    nodes_left = b.bg_nodes;
    cov = Hashtbl.create 64;
    max_trip = b.bg_trip }

let grow ctx =
  let bits = ctx.bits + 1 in
  let slots = Array.make (1 lsl bits) free in
  let mask = Array.length slots - 1 in
  Array.iter
    (fun t ->
      if t != free then begin
        let i = ref (home bits t.hash) in
        while slots.(!i) != free do
          i := (!i + 1) land mask
        done;
        slots.(!i) <- t
      end)
    ctx.slots;
  ctx.slots <- slots;
  ctx.bits <- bits

(* The term of [node], whose hash is [h], from slot [i] on. *)
let rec probe ctx node h i =
  let t = Array.unsafe_get ctx.slots i in
  if t == free then begin
    ctx.nodes_left <- ctx.nodes_left - 1;
    if ctx.nodes_left <= 0 then give_up "term budget exhausted";
    let t = { id = ctx.next_id; hash = h; node; fp = no_fp } in
    ctx.next_id <- ctx.next_id + 1;
    Array.unsafe_set ctx.slots i t;
    if 4 * ctx.next_id > 3 * Array.length ctx.slots then grow ctx;
    t
  end
  else if t.hash = h && Node.equal t.node node then t
  else probe ctx node h ((i + 1) land (Array.length ctx.slots - 1))

let intern ctx node =
  let h = Node.hash node in
  probe ctx node h (home ctx.bits h)

let ti ctx n = intern ctx (TI n)
let tl ctx n = intern ctx (TL n)
let tf ctx f = intern ctx (TF f)
let sym ctx c name = intern ctx (TSym (c, name))

let is_const t = match t.node with TI _ | TL _ | TF _ -> true | _ -> false

(* The value of a constant term; only called under [is_const]. *)
let cv_of t =
  match t.node with
  | TI n -> Cinterp.VI n
  | TL n -> Cinterp.VL n
  | TF f -> Cinterp.VF f
  | _ -> invalid_arg "Sym.cv_of: symbolic term"

(* C's truth of a constant term, as [Cinterp.truthy]; [None] when the
   term is symbolic. Both [Some]s are static, so this allocates
   nothing. *)
let truth t =
  match t.node with
  | TI n -> if n <> 0 then Some true else Some false
  | TL n -> if Int64.equal n 0L then Some false else Some true
  | TF f -> if f <> 0.0 then Some true else Some false
  | _ -> None

let term_of_cv ctx = function
  | Cinterp.VI n -> ti ctx n
  | Cinterp.VL n -> tl ctx n
  | Cinterp.VF f -> tf ctx f
  | Cinterp.VA _ -> give_up "array value in scalar position"

let promote a b =
  match (a, b) with
  | KF, _ | _, KF -> KF
  | KL, _ | _, KL -> KL
  | KI, KI -> KI

let zero_of_cls ctx = function
  | KI -> ti ctx 0
  | KL -> tl ctx 0L
  | KF -> tf ctx 0.0

(* ---------- printing (diagnostics only) ---------- *)

let binop_str = function
  | CAdd -> "+"
  | CSub -> "-"
  | CMul -> "*"
  | CDiv -> "/"
  | CRem -> "%"
  | CLt -> "<"
  | CLe -> "<="
  | CGt -> ">"
  | CGe -> ">="
  | CEq -> "=="
  | CNe -> "!="
  | CAnd -> "&&"
  | COr -> "||"
  | CBAnd -> "&"
  | CBOr -> "|"
  | CBXor -> "^"
  | CShl -> "<<"
  | CShr -> ">>"

let unop_str = function CNeg -> "-" | CNot -> "!" | CBNot -> "~"

let rec pp_term ?(depth = 6) fmt t =
  if depth = 0 then Format.fprintf fmt "..."
  else
    let pp = pp_term ~depth:(depth - 1) in
    match t.node with
    | TI n -> Format.fprintf fmt "%d" n
    | TL n -> Format.fprintf fmt "%LdL" n
    | TF f -> Format.fprintf fmt "%g" f
    | TSym (_, s) -> Format.pp_print_string fmt s
    | TBin (_, op, a, b) ->
      Format.fprintf fmt "(%a %s %a)" pp a (binop_str op) pp b
    | TUn (_, op, a) -> Format.fprintf fmt "%s%a" (unop_str op) pp a
    | TConv (_, a) -> Format.fprintf fmt "cv(%a)" pp a
    | TCall (_, f, args) ->
      Format.fprintf fmt "%s(%a)" f
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           pp)
        args
    | TIte (_, c, a, b) ->
      Format.fprintf fmt "(%a ? %a : %a)" pp c pp a pp b

let term_str t = Format.asprintf "%a" (pp_term ~depth:6) t

(* ---------- smart constructors ---------- *)

(* All construction goes through these: they fold constants with the
   interpreter's own scalar functions (so symbolic and concrete semantics
   cannot drift), canonicalize associative/commutative int and long
   [+]/[*] chains (exact: OCaml int and Int64 arithmetic are modular
   rings), and leave floats strictly un-reassociated. *)

let fold2 ctx f op a b =
  if is_const a && is_const b then
    try Some (term_of_cv ctx (f op (cv_of a) (cv_of b)))
    with Cinterp.C_error _ -> None
  else None

(* Lossless class conversions; [mk_conv] folds concrete operands exactly
   the way [Cinterp.arith]'s promotion would. *)
let mk_conv ctx c t =
  match (c, t.node) with
  | IofL, TL n -> ti ctx (Int64.to_int n)
  | IofF, TF f -> ti ctx (int_of_float f)
  | LofI, TI n -> tl ctx (Int64.of_int n)
  | LofF, TF f -> tl ctx (Int64.of_float f)
  | FofI, TI n -> tf ctx (float_of_int n)
  | FofL, TL n -> tf ctx (Int64.to_float n)
  (* to_int (of_int x) is the identity on OCaml ints *)
  | IofL, TConv (LofI, x) -> x
  | _ -> intern ctx (TConv (c, t))

let to_cls ctx want t =
  match (cls_of t, want) with
  | KI, KI | KL, KL | KF, KF -> t
  | KI, KL -> mk_conv ctx LofI t
  | KI, KF -> mk_conv ctx FofI t
  | KL, KF -> mk_conv ctx FofL t
  | KL, KI -> mk_conv ctx IofL t
  | KF, KI -> mk_conv ctx IofF t
  | KF, KL -> mk_conv ctx LofF t

let is_bool t =
  let rec go d t =
    d > 0
    &&
    match t.node with
    | TI (0 | 1) -> true
    | TBin (_, (CLt | CLe | CGt | CGe | CEq | CNe), _, _) -> true
    | TUn (_, CNot, _) -> true
    | TIte (_, _, a, b) -> go (d - 1) a && go (d - 1) b
    | _ -> false
  in
  go 8 t

(* n-ary canonical chains for the modular AC operators *)

let rec flatten c op t acc =
  match t.node with
  | TBin (c', op', a, b) when c' = c && op' = op ->
    flatten c op a (flatten c op b acc)
  | _ -> t :: acc

let rec mk_nary ctx c op operands =
  let ident = match op with CAdd -> 0 | CMul -> 1 | _ -> assert false in
  let ident_t =
    match c with KI -> ti ctx ident | KL -> tl ctx (Int64.of_int ident) | KF -> assert false
  in
  let const = ref ident_t in
  let syms =
    List.filter
      (fun t ->
        if is_const t then begin
          const := term_of_cv ctx (Cinterp.arith op (cv_of !const) (cv_of t));
          false
        end
        else true)
      operands
  in
  let syms = List.sort (fun a b -> compare a.id b.id) syms in
  let const_is_ident = !const == ident_t in
  let is_zero t = match t.node with TI 0 | TL 0L -> true | _ -> false in
  if op = CMul && is_zero !const then !const
  else
    match syms with
    | [] -> !const
    | [ s ] when op = CMul && not const_is_ident -> (
      (* distribute a constant over a sum: exact in a modular ring, and
         what makes [x - (a + b)] meet [(x - a) - b] *)
      match s.node with
      | TBin (c', CAdd, _, _) when c' = c ->
        let addends = flatten c CAdd s [] in
        mk_nary ctx c CAdd
          (List.map (fun a -> mk_nary ctx c CMul [ !const; a ]) addends)
      | _ -> intern ctx (TBin (c, op, !const, s)))
    | s0 :: rest ->
      let chain init terms =
        List.fold_left (fun acc t -> intern ctx (TBin (c, op, acc, t))) init terms
      in
      if const_is_ident then chain s0 rest else chain !const (s0 :: rest)

let mk_ac ctx c op a b =
  mk_nary ctx c op (flatten c op a (flatten c op b []))

(* comparisons: fold, orient, decide syntactic coincidence. With the
   interpreter's total (polymorphic-compare) ordering, [x op x] folds for
   every class, NaN included. *)
let mk_cmp ctx op a b =
  match fold2 ctx Cinterp.compare_cv op a b with
  | Some t -> t
  | None ->
    if a.id = b.id then
      ti ctx (match op with CEq | CLe | CGe -> 1 | _ -> 0)
    else
      let op, a, b =
        match op with
        | CGt -> (CLt, b, a)
        | CGe -> (CLe, b, a)
        | (CEq | CNe) when a.id > b.id -> (op, b, a)
        | _ -> (op, a, b)
      in
      intern ctx (TBin (KI, op, a, b))

let mk_ite ctx c a b =
  match truth c with
  | Some true -> a
  | Some false -> b
  | None ->
    if a.id = b.id then a
    else if cls_of a <> cls_of b then
      (* a conditional whose dynamic class depends on the path would
         break static class propagation *)
      give_up "mixed-class conditional"
    else
      match (a.node, b.node) with
      | TI 1, TI 0 when is_bool c -> c
      | _ -> intern ctx (TIte (cls_of a, c, a, b))

let bool_of ctx t =
  match truth t with
  | Some v -> ti ctx (if v then 1 else 0)
  | None ->
    if is_bool t then t else mk_cmp ctx CNe t (zero_of_cls ctx (cls_of t))

let mk_arith ctx op a b =
  match fold2 ctx Cinterp.arith op a b with
  | Some t -> t
  | None -> (
    let c = promote (cls_of a) (cls_of b) in
    match c with
    | KF -> intern ctx (TBin (KF, op, to_cls ctx KF a, to_cls ctx KF b))
    | KI | KL -> (
      let a = to_cls ctx c a and b = to_cls ctx c b in
      let neg1 = match c with KI -> ti ctx (-1) | _ -> tl ctx (-1L) in
      match op with
      | CAdd -> mk_ac ctx c CAdd a b
      | CMul -> mk_ac ctx c CMul a b
      | CSub -> mk_ac ctx c CAdd a (mk_ac ctx c CMul neg1 b)
      | CBAnd | CBOr | CBXor ->
        if a.id = b.id then
          if op = CBXor then zero_of_cls ctx c else a
        else
          let zero = zero_of_cls ctx c in
          if a.id = zero.id || b.id = zero.id then
            let other = if a.id = zero.id then b else a in
            (match op with CBAnd -> zero | _ -> other)
          else
            let a, b = if a.id > b.id then (b, a) else (a, b) in
            intern ctx (TBin (c, op, a, b))
      | CShl | CShr ->
        let zero = zero_of_cls ctx (cls_of b) in
        if b.id = zero.id then a else intern ctx (TBin (c, op, a, b))
      | _ -> intern ctx (TBin (c, op, a, b))))

let mk_un ctx op a =
  match op with
  | CNeg -> (
    match cls_of a with
    | KF -> (
      match a.node with
      | TF f -> tf ctx (-.f)
      | _ -> intern ctx (TUn (KF, CNeg, a)))
    | KI -> mk_ac ctx KI CMul (ti ctx (-1)) a
    | KL -> mk_ac ctx KL CMul (tl ctx (-1L)) a)
  | CNot -> (
    match truth a with
    | Some v -> ti ctx (if v then 0 else 1)
    | None -> (
      match a.node with
      | TUn (_, CNot, x) when is_bool x -> x
      | _ -> intern ctx (TUn (KI, CNot, a))))
  | CBNot -> (
    match a.node with
    | TI n -> ti ctx (lnot n)
    | TL n -> tl ctx (Int64.lognot n)
    | _ -> intern ctx (TUn (cls_of a, CBNot, a)))

let math_cls f args =
  match (f, args) with
  | "labs", [ a ] -> ( match cls_of a with KL -> KL | _ -> KF)
  | "abs", [ a ] -> ( match cls_of a with KI -> KI | _ -> KF)
  | ( ("sqrt" | "exp" | "log" | "floor" | "ceil" | "fabs" | "pow" | "fmin"
      | "fmax"),
      _ ) ->
    KF
  | _ -> give_up "unknown C function %s/%d" f (List.length args)

let mk_call ctx f args =
  if List.for_all is_const args then
    try term_of_cv ctx (Cinterp.call_math f (List.map cv_of args))
    with Cinterp.C_error m -> give_up "math call: %s" m
  else intern ctx (TCall (math_cls f args, f, args))

let mk_cast ctx ty t =
  if is_const t then
    try term_of_cv ctx (Cinterp.cast ty (cv_of t))
    with Cinterp.C_error m -> give_up "cast: %s" m
  else
    match ty with
    | CBool -> bool_of ctx t
    | CChar -> mk_arith ctx CBAnd (to_cls ctx KI t) (ti ctx 0xff)
    | CInt -> to_cls ctx KI t
    | CLong -> to_cls ctx KL t
    | CFloat | CDouble -> to_cls ctx KF t
    | CArr _ | CPtr _ -> give_up "cast to aggregate type"

(* ---------- interval analysis ---------- *)

(* Best-effort value ranges for int-class terms; used to discharge the
   in-bounds obligation of symbolically indexed array accesses (the AES
   s-box pattern [(x ^ k) & 255]). Magnitudes are clamped so the interval
   arithmetic itself cannot overflow. *)
let range t =
  let lim = 1 lsl 40 in
  let ok (lo, hi) = lo >= -lim && hi <= lim && lo <= hi in
  let rec go d t =
    if d = 0 then None
    else
      let r =
        match t.node with
        | TI n -> Some (n, n)
        | TBin (KI, CBAnd, a, b) -> (
          let mask = function
            | { node = TI k; _ } when k >= 0 -> Some k
            | _ -> None
          in
          match (mask a, mask b) with
          | Some k, _ | _, Some k ->
            let hi =
              match go (d - 1) (if mask a = Some k then b else a) with
              | Some (lo', hi') when lo' >= 0 -> min k hi'
              | _ -> k
            in
            Some (0, hi)
          | None, None -> None)
        | TBin (KI, CRem, a, { node = TI k; _ }) when k > 0 -> (
          match go (d - 1) a with
          | Some (lo, _) when lo >= 0 -> Some (0, k - 1)
          | _ -> Some (-(k - 1), k - 1))
        | TBin (KI, CAdd, a, b) -> (
          match (go (d - 1) a, go (d - 1) b) with
          | Some (al, ah), Some (bl, bh) -> Some (al + bl, ah + bh)
          | _ -> None)
        | TBin (KI, CMul, a, b) -> (
          match (go (d - 1) a, go (d - 1) b) with
          | Some (al, ah), Some (bl, bh) ->
            let ps = [ al * bl; al * bh; ah * bl; ah * bh ] in
            Some (List.fold_left min max_int ps, List.fold_left max min_int ps)
          | _ -> None)
        | TBin (KI, CDiv, a, { node = TI k; _ }) when k > 0 -> (
          match go (d - 1) a with
          | Some (lo, hi) -> Some (lo / k, hi / k)
          | _ -> None)
        | TIte (KI, _, a, b) -> (
          match (go (d - 1) a, go (d - 1) b) with
          | Some (al, ah), Some (bl, bh) -> Some (min al bl, max ah bh)
          | _ -> None)
        | _ -> None
      in
      match r with Some iv when ok iv -> Some iv | _ -> None
  in
  go 12 t

(* ---------- coverage fingerprints ---------- *)

(* Structural shape of a term, constants and leaf names abstracted, depth
   capped: two kernels exercising the same branch/access shape share a
   fingerprint. Independent of hash-consing ids, hence stable across
   processes and runs. The hash of a composite term at each depth is
   computed once and kept in the term's [fp] slots (allocated on first
   use; [unset] marks a slot not computed yet, and a hash that happens to
   equal it is merely recomputed). *)
let fp_depth = 8

let unset = min_int

let fingerprint kind t =
  let mix h x = (h * 31) + x land 0x3FFFFFFF in
  let rec go d t =
    if d = 0 then 7
    else
      match t.node with
      | TI _ -> 11
      | TL _ -> 13
      | TF _ -> 17
      | TSym (c, _) -> 19 + (match c with KI -> 0 | KL -> 1 | KF -> 2)
      | TBin _ | TUn _ | TConv _ | TCall _ | TIte _ ->
        if t.fp == no_fp then t.fp <- Array.make fp_depth unset;
        let h = Array.unsafe_get t.fp (d - 1) in
        if h <> unset then h
        else begin
          let h = composite d t in
          Array.unsafe_set t.fp (d - 1) h;
          h
        end
  and composite d t =
    match t.node with
    | TBin (_, op, a, b) ->
      mix (mix (mix 23 (Hashtbl.hash op)) (go (d - 1) a)) (go (d - 1) b)
    | TUn (_, op, a) -> mix (mix 29 (Hashtbl.hash op)) (go (d - 1) a)
    | TConv (c, a) -> mix (mix 31 (Hashtbl.hash c)) (go (d - 1) a)
    | TCall (_, f, args) ->
      List.fold_left (fun h a -> mix h (go (d - 1) a)) (mix 37 (Hashtbl.hash f)) args
    | TIte (_, c, a, b) ->
      mix (mix (mix 41 (go (d - 1) c)) (go (d - 1) a)) (go (d - 1) b)
    | TI _ | TL _ | TF _ | TSym _ -> go d t
  in
  (go fp_depth t * 4) + kind

let record_cov ctx kind t = Hashtbl.replace ctx.cov (fingerprint kind t) ()

(* ---------- symbolic execution ---------- *)

exception Sym_return of term option

type sval = Scal of term | Arr of term array

(* A call's variables live in a frame of {!Cscope} slots, fresh per
   call. A slot holds a cell, and every execution of a declaration
   makes a new one, as C gives it a new object: a declaration re-run
   inside one speculated branch (a loop body, a tiled inner counter) is
   a location of its own in the merge. *)
type cell = CScal of term ref | CArrv of term array

type wentry =
  | WScal of term ref * term
  | WArr of term array * int * term

type loc = LScal of term ref | LArr of term array * int

let loc_eq a b =
  match (a, b) with
  | LScal r1, LScal r2 -> r1 == r2
  | LArr (a1, i1), LArr (a2, i2) -> a1 == a2 && i1 = i2
  | (LScal _ | LArr _), _ -> false

type ex = {
  ctx : ctx;
  mutable log : wentry list;
  mutable spec : int;  (* speculation depth: branches under merge *)
}

let step ex =
  ex.ctx.steps_left <- ex.ctx.steps_left - 1;
  if ex.ctx.steps_left <= 0 then give_up "step budget exhausted"

let set_scal ex r v =
  if ex.spec > 0 then ex.log <- WScal (r, !r) :: ex.log;
  r := v

let set_arr ex a i v =
  if ex.spec > 0 then ex.log <- WArr (a, i, a.(i)) :: ex.log;
  a.(i) <- v

let read_loc = function LScal r -> !r | LArr (a, i) -> a.(i)

let write_loc ex = function
  | LScal r -> set_scal ex r
  | LArr (a, i) -> set_arr ex a i

(* Run [f] with every write logged, then undo them all; returns the net
   per-location effect (pre-value, post-value). Merging happens at the
   caller. Mutating through the shared arrays (instead of cloning state)
   is what keeps buffer aliasing across user-function calls exact. *)
let speculate ex f =
  let mark = ex.log in
  ex.spec <- ex.spec + 1;
  (try f () with
  | Sym_return _ ->
    ex.spec <- ex.spec - 1;
    give_up "return under a data-dependent branch"
  | e ->
    ex.spec <- ex.spec - 1;
    raise e);
  ex.spec <- ex.spec - 1;
  let rec entries acc l =
    if l == mark then acc
    else match l with [] -> acc | e :: tl -> entries (e :: acc) tl
  in
  let oldest_first = entries [] ex.log in
  let writes = ref [] in
  List.iter
    (fun e ->
      let loc, old =
        match e with
        | WScal (r, old) -> (LScal r, old)
        | WArr (a, i, old) -> (LArr (a, i), old)
      in
      if not (List.exists (fun (l, _) -> loc_eq l loc) !writes) then
        writes := (loc, old) :: !writes)
    oldest_first;
  let net = List.map (fun (loc, _) -> (loc, read_loc loc)) !writes in
  (* roll back, newest write first *)
  let rec undo l =
    if l == mark then ()
    else
      match l with
      | [] -> ()
      | WScal (r, old) :: tl ->
        r := old;
        undo tl
      | WArr (a, i, old) :: tl ->
        a.(i) <- old;
        undo tl
  in
  undo ex.log;
  ex.log <- mark;
  net

let as_concrete_int what t =
  match t.node with
  | TI n -> n
  | TL n -> Int64.to_int n
  | TF f -> int_of_float f
  | _ -> give_up "symbolic %s: %s" what (term_str t)

(* Binds the arguments right to left, so that a repeated parameter name
   keeps its first argument. *)
let rec bind fr params args =
  match (params, args) with
  | (_, k) :: params, v :: args ->
    bind fr params args;
    fr.(k) <- (match v with Scal t -> CScal (ref t) | Arr a -> CArrv a)
  | _ -> ()

let vacant = CArrv [||]

let rec exec_func ex (fn : Cscope.func) args =
  let fr = Array.make fn.Cscope.slots vacant in
  bind fr fn.Cscope.params args;
  try
    exec_block ex fr fn.Cscope.fbody;
    None
  with Sym_return v -> v

(* Evaluate [e] and insist it performs no writes — used for the untaken
   operand of a short-circuit operator and the arms of [?:] under a
   symbolic condition, which concrete execution may skip. *)
and scalar_pure ex fr what e =
  let mark = ex.log in
  ex.spec <- ex.spec + 1;
  let v =
    try scalar ex fr what e
    with exn ->
      ex.spec <- ex.spec - 1;
      raise exn
  in
  ex.spec <- ex.spec - 1;
  if not (ex.log == mark) then
    give_up "side effect under a data-dependent guard";
  v

(* Evaluate [e] where an array may stand: a call argument, an
   initializer, the right side of an assignment, the array of an index
   or a store. [scalar] names its consumer only for a variable or a
   concrete [?:]'s arm, both of which this handles itself. *)
and eval ex fr (e : Cscope.expr) : sval =
  match e with
  | Cscope.Var (Cscope.Slot k) -> (
    match fr.(k) with CScal r -> Scal !r | CArrv a -> Arr a)
  | Cscope.Cond (c, a, b) -> (
    let sc = scalar ex fr "?:" c in
    match truth sc with
    | Some true -> eval ex fr a
    | Some false -> eval ex fr b
    | None -> Scal (ite ex fr sc a b))
  | _ -> Scal (scalar ex fr "" e)

(* Evaluate [e] where a scalar is expected; an array value gives up,
   naming the consumer [what]. *)
and scalar ex fr what (e : Cscope.expr) : term =
  let ctx = ex.ctx in
  match e with
  | Cscope.Int n -> ti ctx n
  | Cscope.Long n -> tl ctx n
  | Cscope.Float f -> tf ctx f
  | Cscope.Var (Cscope.Slot k) -> (
    match fr.(k) with
    | CScal r -> !r
    | CArrv _ -> give_up "array value in %s" what)
  | Cscope.Var (Cscope.Unbound v) -> give_up "unbound variable %s" v
  | Cscope.Bin (CAnd, a, b) -> (
    let sa = scalar ex fr "&&" a in
    match truth sa with
    | Some true -> bool_of ctx (scalar ex fr "&&" b)
    | Some false -> ti ctx 0
    | None ->
      record_cov ctx 1 sa;
      let sb = scalar_pure ex fr "&&" b in
      mk_ite ctx (bool_of ctx sa) (bool_of ctx sb) (ti ctx 0))
  | Cscope.Bin (COr, a, b) -> (
    let sa = scalar ex fr "||" a in
    match truth sa with
    | Some true -> ti ctx 1
    | Some false -> bool_of ctx (scalar ex fr "||" b)
    | None ->
      record_cov ctx 1 sa;
      let sb = scalar_pure ex fr "||" b in
      mk_ite ctx (bool_of ctx sa) (ti ctx 1) (bool_of ctx sb))
  | Cscope.Bin (((CLt | CLe | CGt | CGe | CEq | CNe) as op), a, b) ->
    let sa = scalar ex fr "comparison" a in
    let sb = scalar ex fr "comparison" b in
    mk_cmp ctx op sa sb
  | Cscope.Bin (op, a, b) ->
    let sa = scalar ex fr "arithmetic" a in
    let sb = scalar ex fr "arithmetic" b in
    mk_arith ctx op sa sb
  | Cscope.Un (op, a) -> mk_un ctx op (scalar ex fr "unary" a)
  | Cscope.Index (arr, idx) -> (
    match eval ex fr arr with
    | Arr data -> read_cell ex data (scalar ex fr "index" idx)
    | Scal _ -> give_up "indexing a non-array")
  | Cscope.Call (fn, args) -> (
    let n = List.length args and m = List.length fn.Cscope.params in
    if n <> m then
      give_up "%s called with %d arguments, takes %d" fn.Cscope.name n m;
    match exec_func ex fn (List.map (eval ex fr) args) with
    | Some v -> v
    | None -> ti ctx 0)
  | Cscope.Math (f, args) -> mk_call ctx f (List.map (scalar ex fr "call") args)
  | Cscope.Cond (c, a, b) -> (
    let sc = scalar ex fr "?:" c in
    match truth sc with
    | Some true -> scalar ex fr what a
    | Some false -> scalar ex fr what b
    | None -> ite ex fr sc a b)
  | Cscope.Cast (t, a) -> mk_cast ctx t (scalar ex fr "cast" a)

(* [sc ? a : b] under a symbolic [sc]: both arms, merged *)
and ite ex fr sc a b =
  let ctx = ex.ctx in
  record_cov ctx 1 sc;
  let sa = scalar_pure ex fr "?:" a in
  let sb = scalar_pure ex fr "?:" b in
  mk_ite ctx (bool_of ctx sc) sa sb

(* Array read at a possibly-symbolic index. A symbolic index must have a
   provable range inside the bounds; the read becomes a select chain over
   that range. *)
and read_cell ex data idx =
  let ctx = ex.ctx in
  if is_const idx then begin
    let i = as_concrete_int "index" idx in
    if i < 0 || i >= Array.length data then
      give_up "index %d out of bounds (len %d)" i (Array.length data);
    data.(i)
  end
  else
    match range idx with
    | Some (lo, hi) when lo >= 0 && hi < Array.length data ->
      record_cov ctx 3 idx;
      let acc = ref data.(lo) in
      for j = lo + 1 to hi do
        acc :=
          mk_ite ctx (mk_cmp ctx CEq idx (ti ctx j)) data.(j) !acc
      done;
      !acc
    | _ ->
      give_up "unbounded symbolic index: %s (len %d)" (term_str idx)
        (Array.length data)

and write_cell ex data idx v =
  let ctx = ex.ctx in
  if is_const idx then begin
    let i = as_concrete_int "store index" idx in
    if i < 0 || i >= Array.length data then
      give_up "store index %d out of bounds (len %d)" i (Array.length data);
    set_arr ex data i v
  end
  else
    match range idx with
    | Some (lo, hi) when lo >= 0 && hi < Array.length data ->
      record_cov ctx 4 idx;
      if cls_of v <> cls_of data.(lo) then
        give_up "mixed-class symbolic store";
      for j = lo to hi do
        set_arr ex data j
          (mk_ite ctx (mk_cmp ctx CEq idx (ti ctx j)) v data.(j))
      done
    | _ ->
      give_up "unbounded symbolic store index: %s (len %d)" (term_str idx)
        (Array.length data)

and exec_block ex fr stmts = List.iter (exec_stmt ex fr) stmts

and exec_stmt ex fr (s : Cscope.stmt) =
  let ctx = ex.ctx in
  step ex;
  match s with
  | Cscope.Decl (t, name, k, init) ->
    fr.(k) <-
      (match init with
      | Some e -> (
        match eval ex fr e with Scal v -> CScal (ref v) | Arr a -> CArrv a)
      | None -> (
        match t with
        | CArr (elt, n) -> (
          match elt with
          | CArr _ | CPtr _ -> give_up "nested aggregate local"
          | _ ->
            if n < 0 then give_up "local array %s has negative size %d" name n;
            let z =
              match elt with
              | CLong -> tl ctx 0L
              | CFloat | CDouble -> tf ctx 0.0
              | _ -> ti ctx 0
            in
            CArrv (Array.make n z))
        | CPtr _ -> give_up "pointer local without initializer"
        | CLong -> CScal (ref (tl ctx 0L))
        | CFloat | CDouble -> CScal (ref (tf ctx 0.0))
        | _ -> CScal (ref (ti ctx 0))))
  | Cscope.Assign (var, e) -> (
    let v = eval ex fr e in
    match var with
    | Cscope.Unbound name -> give_up "unbound variable %s" name
    | Cscope.Slot k -> (
      match (fr.(k), v) with
      | CScal r, Scal t -> set_scal ex r t
      | _ -> give_up "array re-binding"))
  | Cscope.Store (arr, idx, e) -> (
    let v = scalar ex fr "store" e in
    match eval ex fr arr with
    | Arr data -> write_cell ex data (scalar ex fr "store index" idx) v
    | Scal _ -> give_up "index-assign on non-array")
  | Cscope.Bad_assign e ->
    ignore (eval ex fr e);
    give_up "invalid lvalue"
  | Cscope.If (c, a, b) -> (
    let sc = scalar ex fr "if" c in
    match truth sc with
    | Some true -> exec_block ex fr a
    | Some false -> exec_block ex fr b
    | None ->
      record_cov ctx 1 sc;
      let cond = bool_of ctx sc in
      let thenw = speculate ex (fun () -> exec_block ex fr a) in
      let elsew = speculate ex (fun () -> exec_block ex fr b) in
      let merged = ref [] in
      List.iter
        (fun (loc, tv) ->
          let ev =
            match List.find_opt (fun (l, _) -> loc_eq l loc) elsew with
            | Some (_, v) -> v
            | None -> read_loc loc
          in
          merged := (loc, tv, ev) :: !merged)
        thenw;
      List.iter
        (fun (loc, ev) ->
          if not (List.exists (fun (l, _, _) -> loc_eq l loc) !merged) then
            merged := (loc, read_loc loc, ev) :: !merged)
        elsew;
      List.iter
        (fun (loc, tv, ev) ->
          if cls_of tv <> cls_of ev then give_up "mixed-class merge";
          write_loc ex loc (mk_ite ctx cond tv ev))
        !merged)
  | Cscope.While (c, b) ->
    let trips = ref 0 in
    let continue_ () =
      match truth (scalar ex fr "while" c) with
      | Some v -> v
      | None -> give_up "symbolic while condition"
    in
    while continue_ () do
      step ex;
      incr trips;
      if !trips > ctx.max_trip then give_up "while trip budget exhausted";
      exec_block ex fr b
    done
  | Cscope.For l ->
    let lo =
      as_concrete_int "loop lower bound" (scalar ex fr "loop bound" l.lo)
    in
    let box n =
      match l.vty with CLong -> tl ctx (Int64.of_int n) | _ -> ti ctx n
    in
    let cell =
      match l.counter with
      | Cscope.Unbound name -> give_up "unbound variable %s" name
      | Cscope.Slot k -> (
        match fr.(k) with
        | _ when l.declared ->
          let r = ref (box lo) in
          fr.(k) <- CScal r;
          r
        | CScal r ->
          set_scal ex r (box lo);
          r
        | CArrv _ -> give_up "array loop counter")
    in
    let trips = ref 0 in
    let continue_ () =
      as_concrete_int "loop counter" !cell
      < as_concrete_int "loop upper bound" (scalar ex fr "loop bound" l.hi)
    in
    while continue_ () do
      step ex;
      incr trips;
      if !trips > ctx.max_trip then give_up "loop trip budget exhausted";
      exec_block ex fr l.body;
      set_scal ex cell (box (as_concrete_int "loop counter" !cell + l.step))
    done
  | Cscope.Expr e -> ignore (eval ex fr e)
  | Cscope.Return v ->
    raise (Sym_return (Option.map (scalar ex fr "return") v))

(* ---------- whole-program execution ---------- *)

let cls_of_ty = function
  | CBool | CChar | CInt -> KI
  | CLong -> KL
  | CFloat | CDouble -> KF
  | CArr _ | CPtr _ -> give_up "aggregate where scalar type expected"

type outputs = {
  o_arrays : (string * term array) list;
  o_ret : term option;
}

(* Early gate: any loop whose statically recovered trip count already
   exceeds the budget cannot be unrolled, so refuse before spending the
   step budget discovering that. *)
let check_static_trips ctx prog =
  List.iter
    (fun (f : cfunc) ->
      Csyntax.iter_loops
        (fun _ (l : loop) ->
          match Canalysis.trip_count l with
          | Some t when t > ctx.max_trip ->
            give_up "%s: loop L%d static trip %d exceeds budget %d"
              f.cfname l.lid t ctx.max_trip
          | _ -> ())
        f.cfbody)
    prog.cfuncs

let run_sym ctx prog entry ~bindings ~caps =
  let fn =
    match
      List.find_opt
        (fun (fn : Cscope.func) -> String.equal fn.Cscope.name entry)
        (Cscope.resolve prog)
    with
    | Some fn -> fn
    | None -> give_up "no function %s" entry
  in
  check_static_trips ctx prog;
  let args =
    List.map
      (fun ((p : cparam), _) ->
        match p.cpty with
        | CPtr elt | CArr (elt, _) ->
          let n =
            match p.cpty with
            | CArr (_, n) -> n
            | _ -> (
              match List.assoc_opt p.cpname caps with
              | Some n -> n
              | None -> give_up "no capacity given for buffer %s" p.cpname)
          in
          (match elt with
          | CArr _ | CPtr _ -> give_up "nested aggregate parameter"
          | _ -> ());
          let kc = cls_of_ty elt in
          ( p.cpname,
            Arr
              (Array.init n (fun i ->
                   sym ctx kc (Printf.sprintf "%s[%d]" p.cpname i))) )
        | ty -> (
          match List.assoc_opt p.cpname bindings with
          | Some cv -> (p.cpname, Scal (term_of_cv ctx cv))
          | None -> (p.cpname, Scal (sym ctx (cls_of_ty ty) p.cpname))))
      fn.Cscope.params
  in
  let ex = { ctx; log = []; spec = 0 } in
  let ret = exec_func ex fn (List.map snd args) in
  { o_arrays =
      List.filter_map
        (fun (n, v) ->
          match v with Arr a -> Some (n, Array.copy a) | Scal _ -> None)
        args;
    o_ret = ret }

(* ---------- concrete sampling ---------- *)

let rec deep_copy = function
  | Cinterp.VA a -> Cinterp.VA (Array.map deep_copy a)
  | v -> v

let rec eq_cv a b =
  match (a, b) with
  | Cinterp.VF x, Cinterp.VF y ->
    x = y || (Float.is_nan x && Float.is_nan y)
  | Cinterp.VA x, Cinterp.VA y ->
    Array.length x = Array.length y
    && Array.for_all2 eq_cv x y
  | _ -> Cinterp.equal_cvalue a b

let pp_cv fmt = function
  | Cinterp.VI n -> Format.fprintf fmt "%d" n
  | Cinterp.VL n -> Format.fprintf fmt "%LdL" n
  | Cinterp.VF f -> Format.fprintf fmt "%g" f
  | Cinterp.VA _ -> Format.pp_print_string fmt "<array>"

let sample_scalar rng = function
  | KI -> Cinterp.VI (Rng.int_in rng 0 4)
  | KL -> Cinterp.VL (Int64.of_int (Rng.int_in rng 0 4))
  | KF -> Cinterp.VF (float_of_int (Rng.int_in rng 0 32) /. 8.)

let sample_args rng (f : cfunc) ~bindings ~caps =
  List.map
    (fun (p : cparam) ->
      match p.cpty with
      | CPtr elt | CArr (elt, _) ->
        let n =
          match p.cpty with
          | CArr (_, n) -> n
          | _ -> (
            match List.assoc_opt p.cpname caps with
            | Some n -> n
            | None -> 8)
        in
        let one () =
          match cls_of_ty elt with
          | KI ->
            if p.cpbitwidth = Some 8 then Cinterp.VI (Rng.int_in rng 0 200)
            else Cinterp.VI (Rng.int_in rng (-9) 9)
          | KL -> Cinterp.VL (Int64.of_int (Rng.int_in rng (-9) 9))
          | KF -> Cinterp.VF (float_of_int (Rng.int_in rng (-40) 40) /. 8.)
        in
        (p.cpname, Cinterp.VA (Array.init n (fun _ -> one ())))
      | ty -> (
        match List.assoc_opt p.cpname bindings with
        | Some cv -> (p.cpname, cv)
        | None -> (p.cpname, sample_scalar rng (cls_of_ty ty))))
    f.cfparams

let run_concrete prog entry args =
  let args' = List.map (fun (n, v) -> (n, deep_copy v)) args in
  match Cinterp.run_func prog entry args' with
  | ret -> Ok (ret, args')
  | exception Cinterp.C_error m -> Error m

type counterexample = {
  cx_args : (string * Cinterp.cvalue) list;
  cx_detail : string;
}

let diff_concrete args1 args2 ret1 ret2 =
  let diffs = ref [] in
  (match (ret1, ret2) with
  | Some a, Some b when not (eq_cv a b) ->
    diffs :=
      Format.asprintf "return: %a vs %a" pp_cv a pp_cv b :: !diffs
  | Some _, None | None, Some _ -> diffs := "return presence differs" :: !diffs
  | _ -> ());
  List.iter
    (fun (name, v1) ->
      match List.assoc_opt name args2 with
      | Some v2 -> (
        match (v1, v2) with
        | Cinterp.VA a1, Cinterp.VA a2 ->
          Array.iteri
            (fun i c1 ->
              if i < Array.length a2 && not (eq_cv c1 a2.(i)) then
                diffs :=
                  Format.asprintf "%s[%d]: %a vs %a" name i pp_cv c1 pp_cv
                    a2.(i)
                  :: !diffs)
            a1
        | _ -> ())
      | None -> ())
    args1;
  List.rev !diffs

let refute ?(samples = 32) ?(seed = 0) ?(bindings = []) ~caps p1 p2 entry =
  match Csyntax.find_cfunc p1 entry with
  | None -> None
  | Some f ->
    let rng = Rng.create (seed + 0x5f3759df) in
    let rec go k =
      if k = 0 then None
      else
        let args = sample_args rng f ~bindings ~caps in
        match (run_concrete p1 entry args, run_concrete p2 entry args) with
        | Ok (r1, a1), Ok (r2, a2) -> (
          match diff_concrete a1 a2 r1 r2 with
          | [] -> go (k - 1)
          | d :: _ -> Some { cx_args = args; cx_detail = d })
        | Error m, Ok _ ->
          Some { cx_args = args; cx_detail = "first program trapped: " ^ m }
        | Ok _, Error m ->
          Some { cx_args = args; cx_detail = "second program trapped: " ^ m }
        | Error _, Error _ -> go (k - 1)
    in
    go samples

(* ---------- the verifier ---------- *)

type stats = {
  pv_outputs : int;
  pv_paths : int;
  pv_nodes : int;
  pv_steps : int;
}

type verdict =
  | Proved of stats
  | Refuted of counterexample
  | Unknown of string

let pp_verdict fmt = function
  | Proved st ->
    Format.fprintf fmt "proved (%d outputs, %d paths, %d terms)"
      st.pv_outputs st.pv_paths st.pv_nodes
  | Refuted cx -> Format.fprintf fmt "REFUTED: %s" cx.cx_detail
  | Unknown why -> Format.fprintf fmt "unknown: %s" why

let signatures_match (f1 : cfunc) (f2 : cfunc) =
  List.length f1.cfparams = List.length f2.cfparams
  && List.for_all2
       (fun (a : cparam) (b : cparam) ->
         a.cpname = b.cpname && a.cpty = b.cpty)
       f1.cfparams f2.cfparams

let diff_outputs o1 o2 =
  let diffs = ref [] in
  (match (o1.o_ret, o2.o_ret) with
  | Some a, Some b when a.id <> b.id ->
    diffs :=
      Printf.sprintf "return: %s vs %s" (term_str a) (term_str b) :: !diffs
  | Some _, None | None, Some _ -> diffs := "return presence differs" :: !diffs
  | _ -> ());
  List.iter
    (fun (name, a1) ->
      match List.assoc_opt name o2.o_arrays with
      | Some a2 ->
        Array.iteri
          (fun i t1 ->
            if i < Array.length a2 && t1.id <> a2.(i).id then
              diffs :=
                Printf.sprintf "%s[%d]: %s vs %s" name i (term_str t1)
                  (term_str a2.(i))
                :: !diffs)
          a1
      | None -> ())
    o1.o_arrays;
  List.rev !diffs

let count_outputs o =
  List.fold_left (fun n (_, a) -> n + Array.length a) 0 o.o_arrays
  + match o.o_ret with Some _ -> 1 | None -> 0

let equiv ?(budget = default_budget) ?(bindings = []) ?(samples = 32)
    ?(seed = 0) ~caps p1 p2 entry =
  S2fa_obs.Obs.span "sym.equiv" @@ fun () ->
  S2fa_obs.Obs.count "sym.proof";
  let sym_outcome =
    try
      match (Csyntax.find_cfunc p1 entry, Csyntax.find_cfunc p2 entry) with
      | Some f1, Some f2 when signatures_match f1 f2 ->
        let ctx = new_ctx budget in
        let charge () =
          (* Proof budget actually consumed, whatever the verdict. *)
          S2fa_obs.Obs.count_by (budget.bg_steps - ctx.steps_left)
            "sym.steps";
          S2fa_obs.Obs.count_by ctx.next_id "sym.nodes"
        in
        Fun.protect ~finally:charge @@ fun () ->
        let o1 = run_sym ctx p1 entry ~bindings ~caps in
        let o2 = run_sym ctx p2 entry ~bindings ~caps in
        (match diff_outputs o1 o2 with
        | [] ->
          `Proved
            { pv_outputs = count_outputs o1;
              pv_paths = Hashtbl.length ctx.cov;
              pv_nodes = ctx.next_id;
              pv_steps = budget.bg_steps - ctx.steps_left }
        | d :: _ -> `Mismatch d)
      | Some _, Some _ -> `Unknown "entry signatures differ"
      | _ -> `Unknown ("no function " ^ entry)
    with Give_up m -> `Unknown m
  in
  match sym_outcome with
  | `Proved st -> Proved st
  | `Unknown m -> Unknown m
  | `Mismatch where -> (
    match refute ~samples ~seed ~bindings ~caps p1 p2 entry with
    | Some cx -> Refuted cx
    | None ->
      Unknown ("symbolic mismatch without a concrete witness: " ^ where))

let coverage ?(budget = default_budget) ?(bindings = []) ~caps prog entry =
  try
    let ctx = new_ctx budget in
    let (_ : outputs) = run_sym ctx prog entry ~bindings ~caps in
    Ok (Hashtbl.fold (fun k () acc -> k :: acc) ctx.cov [] |> List.sort compare)
  with Give_up m -> Error m
