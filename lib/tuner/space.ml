module Rng = S2fa_util.Rng

type param =
  | PInt of string * int * int
  | PPow2 of string * int * int
  | PEnum of string * string list

type space = param list

type value = VInt of int | VStr of string

type cfg = (string * value) list

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

let cardinality space =
  List.fold_left
    (fun acc p -> acc *. float_of_int (max 1 (List.length (values_of p))))
    1.0 space

let by_name (a, _) (b, _) = String.compare a b

let rec sorted = function
  | a :: (b :: _ as rest) -> by_name a b <= 0 && sorted rest
  | _ -> true

(* Configurations built by this module are sorted already; a stable sort
   keeps the order of duplicate names otherwise. *)
let normalize cfg = if sorted cfg then cfg else List.stable_sort by_name cfg

let get_int cfg name =
  match List.assoc name cfg with
  | VInt v -> v
  | VStr _ -> invalid_arg ("Space.get_int: " ^ name ^ " is a string")

let get_str cfg name =
  match List.assoc name cfg with
  | VStr s -> s
  | VInt _ -> invalid_arg ("Space.get_str: " ^ name ^ " is an int")

let set cfg name v = normalize ((name, v) :: List.remove_assoc name cfg)

let random_value rng p = Rng.choose_list rng (values_of p)

let random_cfg rng space =
  normalize (List.map (fun p -> (param_name p, random_value rng p)) space)

let mutate rng space cfg ?(rate = 0.25) () =
  let changed = ref false in
  let out =
    List.map
      (fun p ->
        let name = param_name p in
        let old = List.assoc name cfg in
        if Rng.float rng 1.0 < rate then begin
          let v = random_value rng p in
          if v <> old then changed := true;
          (name, v)
        end
        else (name, old))
      space
  in
  let out = normalize out in
  if !changed then out
  else begin
    (* Force one change. *)
    let p = Rng.choose_list rng space in
    let name = param_name p in
    let vs = List.filter (fun v -> v <> List.assoc name cfg) (values_of p) in
    match vs with
    | [] -> out
    | _ -> set out name (Rng.choose_list rng vs)
  end

let neighbor rng space cfg =
  let p = Rng.choose_list rng space in
  let name = param_name p in
  let vs = Array.of_list (values_of p) in
  let cur = List.assoc name cfg in
  let idx = ref 0 in
  Array.iteri (fun i v -> if v = cur then idx := i) vs;
  let cand =
    if Array.length vs = 1 then cur
    else if !idx = 0 then vs.(1)
    else if !idx = Array.length vs - 1 then vs.(Array.length vs - 2)
    else if Rng.bool rng then vs.(!idx - 1)
    else vs.(!idx + 1)
  in
  set cfg name cand

let changed_params a b =
  List.filter_map
    (fun (n, v) ->
      match List.assoc_opt n b with
      | Some v' when v = v' -> None
      | _ -> Some n)
    a

let key cfg =
  let b = Buffer.create 256 in
  List.iteri
    (fun i (n, v) ->
      if i > 0 then Buffer.add_char b ';';
      Buffer.add_string b n;
      Buffer.add_char b '=';
      Buffer.add_string b
        (match v with VInt x -> string_of_int x | VStr s -> s))
    (normalize cfg);
  Buffer.contents b

let to_floats space cfg =
  let coord p =
    let vs = Array.of_list (values_of p) in
    let n = Array.length vs in
    if n <= 1 then 0.5
    else begin
      let cur = List.assoc (param_name p) cfg in
      let idx = ref 0 in
      Array.iteri (fun i v -> if v = cur then idx := i) vs;
      float_of_int !idx /. float_of_int (n - 1)
    end
  in
  Array.of_list (List.map coord space)

let of_floats space xs =
  let decode i p =
    let vs = Array.of_list (values_of p) in
    let n = Array.length vs in
    let x = Float.max 0.0 (Float.min 1.0 xs.(i)) in
    let idx = int_of_float (Float.round (x *. float_of_int (n - 1))) in
    (param_name p, vs.(max 0 (min (n - 1) idx)))
  in
  normalize (List.mapi decode space)

let pp_cfg ppf cfg =
  Format.fprintf ppf "{%s}" (key cfg)
