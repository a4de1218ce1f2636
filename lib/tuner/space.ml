module Rng = S2fa_util.Rng

type param =
  | PInt of string * int * int
  | PPow2 of string * int * int
  | PEnum of string * string list

type value = VInt of int | VStr of string

(* [names] are sorted by [String.compare]; [tables.(i)] holds the values
   slot [i] can take, in the order of the parameter it was made from. *)
type shape = { names : string array; tables : value array array }

(* [slots.(j)] is the slot of the [j]th declared parameter and
   [legal.(j)] the indices, into that slot's table, of its legal
   values, in the parameter's order. *)
type space = {
  s_params : param list;
  s_shape : shape;
  s_slots : int array;
  s_legal : int array array;
}

(* [code.[i]] is the index of slot [i]'s value in [shape.tables.(i)]. *)
type cfg = { c_shape : shape; c_code : string }

let param_name = function
  | PInt (n, _, _) | PPow2 (n, _, _) | PEnum (n, _) -> n

let rec pow2_up x = if x <= 1 then 1 else 2 * pow2_up ((x + 1) / 2)

let pow2_values lo hi =
  let lo = max 1 lo in
  let rec go v acc = if v > hi then List.rev acc else go (2 * v) (v :: acc) in
  go (pow2_up lo) []

let values_of = function
  | PInt (_, lo, hi) -> List.init (hi - lo + 1) (fun i -> VInt (lo + i))
  | PPow2 (_, lo, hi) -> List.map (fun v -> VInt v) (pow2_values lo hi)
  | PEnum (_, cs) -> List.map (fun c -> VStr c) cs

let value_equal a b =
  match (a, b) with
  | VInt x, VInt y -> Int.equal x y
  | VStr x, VStr y -> String.equal x y
  | _ -> false

(* The index of [v] in [table], or -1. *)
let index_of table v =
  let n = Array.length table in
  let rec go i =
    if i = n then -1 else if value_equal table.(i) v then i else go (i + 1)
  in
  go 0

(* A slot holds a byte. *)
let max_values = 256

let table_of p =
  let name = param_name p in
  let too_many () =
    invalid_arg
      (Printf.sprintf "Space.make: parameter %s has more than %d values" name
         max_values)
  in
  (* A wide integer range is refused before its values are listed. *)
  (match p with
  | PInt (_, lo, hi) when hi >= lo && (hi - lo < 0 || hi - lo >= max_values)
    ->
    too_many ()
  | _ -> ());
  let table = Array.of_list (values_of p) in
  if Array.length table > max_values then too_many ();
  Array.iteri
    (fun i v ->
      if index_of table v <> i then
        invalid_arg
          (Printf.sprintf "Space.make: parameter %s repeats a value" name))
    table;
  table

let make params =
  let decl = Array.of_list params in
  let n = Array.length decl in
  let name j = param_name decl.(j) in
  (* [order.(i)] is the declaration index of slot [i]. *)
  let order = Array.init n Fun.id in
  Array.stable_sort (fun i j -> String.compare (name i) (name j)) order;
  let names = Array.map name order in
  for i = 1 to n - 1 do
    if String.equal names.(i - 1) names.(i) then
      invalid_arg
        (Printf.sprintf "Space.make: parameter %s is declared twice"
           names.(i))
  done;
  let tables = Array.map (fun j -> table_of decl.(j)) order in
  let slots = Array.make n 0 in
  Array.iteri (fun i j -> slots.(j) <- i) order;
  { s_params = params;
    s_shape = { names; tables };
    s_slots = slots;
    s_legal =
      Array.init n (fun j ->
          Array.init (Array.length tables.(slots.(j))) Fun.id) }

let params s = s.s_params

let restrict s f =
  let legal = Array.copy s.s_legal in
  let params =
    List.mapi
      (fun j p ->
        let p' = f p in
        if p' != p then begin
          let slot = s.s_slots.(j) in
          let name = s.s_shape.names.(slot) in
          if not (String.equal (param_name p') name) then
            invalid_arg
              (Printf.sprintf "Space.restrict: parameter %s renamed to %s" name
                 (param_name p'));
          let table = s.s_shape.tables.(slot) in
          legal.(j) <-
            Array.of_list
              (List.map
                 (fun v ->
                   let k = index_of table v in
                   if k < 0 then
                     invalid_arg
                       (Printf.sprintf
                          "Space.restrict: parameter %s takes a value outside \
                           its table"
                          name);
                   k)
                 (values_of p'))
        end;
        p')
      s.s_params
  in
  { s with s_params = params; s_legal = legal }

let cardinality s =
  Array.fold_left
    (fun acc legal -> acc *. float_of_int (max 1 (Array.length legal)))
    1.0 s.s_legal

(* ---------- reading by name ---------- *)

let by_name (a, _) (b, _) = String.compare a b

let of_list l =
  let l = List.stable_sort by_name l in
  { c_shape =
      { names = Array.of_list (List.map fst l);
        tables = Array.of_list (List.map (fun (_, v) -> [| v |]) l) };
    c_code = String.make (List.length l) '\000' }

let shape cfg = cfg.c_shape

let space_shape s = s.s_shape

let width sh = Array.length sh.names

let slot_name sh i = sh.names.(i)

let value_at cfg i = cfg.c_shape.tables.(i).(Char.code cfg.c_code.[i])

let to_list cfg =
  List.init (width cfg.c_shape) (fun i ->
      (cfg.c_shape.names.(i), value_at cfg i))

(* The first slot named [name], or -1. *)
let slot_of sh name =
  let lo = ref 0 and hi = ref (Array.length sh.names) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare sh.names.(mid) name < 0 then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length sh.names && String.equal sh.names.(!lo) name then !lo
  else -1

let find cfg name =
  match slot_of cfg.c_shape name with
  | -1 -> None
  | i -> Some (value_at cfg i)

let reader s name =
  let slot = slot_of s.s_shape name in
  fun cfg ->
    if cfg.c_shape == s.s_shape && slot >= 0 then Some (value_at cfg slot)
    else find cfg name

let get_int cfg name =
  match find cfg name with
  | Some (VInt v) -> v
  | Some (VStr _) -> invalid_arg ("Space.get_int: " ^ name ^ " is a string")
  | None -> raise Not_found

let get_str cfg name =
  match find cfg name with
  | Some (VStr s) -> s
  | Some (VInt _) -> invalid_arg ("Space.get_str: " ^ name ^ " is an int")
  | None -> raise Not_found

let set cfg name v = of_list ((name, v) :: List.remove_assoc name (to_list cfg))

(* ---------- search operations, on a space's shape ---------- *)

let in_shape fn s cfg =
  if cfg.c_shape != s.s_shape then
    invalid_arg
      ("Space." ^ fn ^ ": the configuration is not of the space's shape");
  cfg.c_code

let with_code s b = { c_shape = s.s_shape; c_code = Bytes.unsafe_to_string b }

let byte code i = Char.code code.[i]

(* A uniform index below [n], drawn as [Rng.choose_list] draws. *)
let pick_index rng n =
  if n = 0 then invalid_arg "Space: a choice among no values";
  Rng.int rng n

let pick rng legal = legal.(pick_index rng (Array.length legal))

(* The last position of [k] in [legal], or 0. *)
let position k legal =
  let idx = ref 0 in
  Array.iteri (fun i k' -> if k' = k then idx := i) legal;
  !idx

let random_cfg rng s =
  let b = Bytes.create (Array.length s.s_slots) in
  Array.iteri
    (fun j legal -> Bytes.set b s.s_slots.(j) (Char.chr (pick rng legal)))
    s.s_legal;
  with_code s b

let mutate rng s cfg =
  let rate = 0.25 in
  let code = in_shape "mutate" s cfg in
  let b = Bytes.of_string code in
  let changed = ref false in
  Array.iteri
    (fun j legal ->
      if Rng.float rng 1.0 < rate then begin
        let slot = s.s_slots.(j) in
        let k = pick rng legal in
        if k <> byte code slot then changed := true;
        Bytes.set b slot (Char.chr k)
      end)
    s.s_legal;
  if not !changed then begin
    (* Force one change. *)
    let j = pick_index rng (Array.length s.s_legal) in
    let slot = s.s_slots.(j) in
    let old = byte code slot in
    let others =
      Array.fold_left (fun n k -> if k <> old then n + 1 else n) 0 s.s_legal.(j)
    in
    if others > 0 then begin
      let r = ref (Rng.int rng others) in
      Array.iter
        (fun k ->
          if k <> old then begin
            if !r = 0 then Bytes.set b slot (Char.chr k);
            decr r
          end)
        s.s_legal.(j)
    end
  end;
  with_code s b

let neighbor rng s cfg =
  let code = in_shape "neighbor" s cfg in
  let j = pick_index rng (Array.length s.s_legal) in
  let slot = s.s_slots.(j) and legal = s.s_legal.(j) in
  let n = Array.length legal in
  let cur = byte code slot in
  let idx = position cur legal in
  let cand =
    if n = 1 then cur
    else if idx = 0 then legal.(1)
    else if idx = n - 1 then legal.(n - 2)
    else if Rng.bool rng then legal.(idx - 1)
    else legal.(idx + 1)
  in
  let b = Bytes.of_string code in
  Bytes.set b slot (Char.chr cand);
  with_code s b

let changed_params a b =
  if a.c_shape != b.c_shape then
    invalid_arg "Space.changed_params: configurations of different shapes";
  let acc = ref [] in
  for i = width a.c_shape - 1 downto 0 do
    if not (Char.equal a.c_code.[i] b.c_code.[i]) then
      acc := a.c_shape.names.(i) :: !acc
  done;
  !acc

let code cfg = cfg.c_code

let key cfg =
  let b = Buffer.create 256 in
  Array.iteri
    (fun i n ->
      if i > 0 then Buffer.add_char b ';';
      Buffer.add_string b n;
      Buffer.add_char b '=';
      Buffer.add_string b
        (match value_at cfg i with VInt x -> string_of_int x | VStr s -> s))
    cfg.c_shape.names;
  Buffer.contents b

let to_floats s cfg =
  let code = in_shape "to_floats" s cfg in
  Array.mapi
    (fun j legal ->
      let n = Array.length legal in
      if n <= 1 then 0.5
      else
        float_of_int (position (byte code s.s_slots.(j)) legal)
        /. float_of_int (n - 1))
    s.s_legal

let of_floats s xs =
  let b = Bytes.create (Array.length s.s_slots) in
  Array.iteri
    (fun j legal ->
      let n = Array.length legal in
      let x = Float.max 0.0 (Float.min 1.0 xs.(j)) in
      let idx = int_of_float (Float.round (x *. float_of_int (n - 1))) in
      Bytes.set b s.s_slots.(j) (Char.chr legal.(max 0 (min (n - 1) idx))))
    s.s_legal;
  with_code s b

(* ---------- into a space's shape ---------- *)

(* The index, into [table], of the legal value [cur] clamps to. *)
let clamp table legal cur =
  match cur with
  | None -> legal.(0)
  | Some v -> (
    let n = Array.length legal in
    let rec mem i =
      if i = n then -1
      else if value_equal table.(legal.(i)) v then legal.(i)
      else mem (i + 1)
    in
    match (mem 0, v) with
    | -1, VInt x ->
      (* Nearest legal integer, the first one on ties. *)
      let best = ref (-1) in
      Array.iter
        (fun k ->
          match table.(k) with
          | VInt y -> (
            if !best < 0 then best := k
            else
              match table.(!best) with
              | VInt b -> if abs (y - x) < abs (b - x) then best := k
              | VStr _ -> ())
          | VStr _ -> ())
        legal;
      if !best < 0 then legal.(0) else !best
    | -1, VStr _ -> legal.(0)
    | k, _ -> k)

let fit s read =
  let b = Bytes.create (Array.length s.s_slots) in
  Array.iteri
    (fun j legal ->
      let slot = s.s_slots.(j) in
      Bytes.set b slot
        (Char.chr (clamp s.s_shape.tables.(slot) legal (read slot))))
    s.s_legal;
  with_code s b

let project s cfg =
  if cfg.c_shape == s.s_shape then fit s (fun i -> Some (value_at cfg i))
  else fit s (fun i -> find cfg s.s_shape.names.(i))

let join s cfg =
  if cfg.c_shape == s.s_shape then cfg
  else begin
    let sh = s.s_shape in
    Array.iter
      (fun n ->
        if slot_of sh n < 0 then
          invalid_arg ("Space.join: " ^ n ^ " is not a parameter of the space"))
      cfg.c_shape.names;
    let b = Bytes.create (width sh) in
    Array.iteri
      (fun i n ->
        match find cfg n with
        | None -> invalid_arg ("Space.join: no value for parameter " ^ n)
        | Some v ->
          let k = index_of sh.tables.(i) v in
          if k < 0 then
            invalid_arg
              ("Space.join: parameter " ^ n ^ " cannot take its value");
          Bytes.set b i (Char.chr k))
      sh.names;
    if width cfg.c_shape <> width sh then
      invalid_arg "Space.join: a parameter is bound twice";
    with_code s b
  end

let pp_cfg ppf cfg = Format.fprintf ppf "{%s}" (key cfg)
