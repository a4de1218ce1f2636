module Space = S2fa_tuner.Space
module Rng = S2fa_util.Rng
module Stats = S2fa_util.Stats

type constr =
  | CLe of string * int
  | CGt of string * int
  | CIn of string * string list

type partition = { p_constrs : constr list; p_space : Space.space }

let restrict space c =
  Space.restrict space (fun p ->
      match (p, c) with
      | Space.PPow2 (n, lo, hi), CLe (cn, t) when String.equal n cn ->
        Space.PPow2 (n, lo, min hi t)
      | Space.PPow2 (n, lo, hi), CGt (cn, t) when String.equal n cn ->
        Space.PPow2 (n, max lo (t + 1), hi)
      | Space.PInt (n, lo, hi), CLe (cn, t) when String.equal n cn ->
        Space.PInt (n, lo, min hi t)
      | Space.PInt (n, lo, hi), CGt (cn, t) when String.equal n cn ->
        Space.PInt (n, max lo (t + 1), hi)
      | Space.PEnum (n, cs), CIn (cn, allowed) when String.equal n cn ->
        let kept = List.filter (fun x -> List.mem x allowed) cs in
        Space.PEnum (n, if kept = [] then cs else kept)
      | _ -> p)

let project part cfg = Space.project part.p_space cfg

(* Eq. 1 with variance impurity over [xs.(0 .. n-1)], whose first [n_l]
   elements are the left child's and the rest the right child's. The
   whole range is the parent, summed left then right as
   [Array.append left right] would be. *)
let gain_of xs n_l n =
  let f_l = float_of_int n_l and f_r = float_of_int (n - n_l) in
  let f_n = f_l +. f_r in
  if f_n = 0.0 then 0.0
  else
    Stats.variance_sub xs 0 n
    -. (f_l /. f_n *. Stats.variance_sub xs 0 n_l)
    -. (f_r /. f_n *. Stats.variance_sub xs n_l (n - n_l))

let info_gain left right =
  let n_l = Array.length left in
  gain_of (Array.append left right) n_l (n_l + Array.length right)

type sample = { s_cfg : Space.cfg; s_latency : float }

(* Candidate splits of one parameter given the samples. *)
let candidate_splits (p : Space.param) =
  match p with
  | Space.PInt (n, _, _) | Space.PPow2 (n, _, _) -> (
    let vs =
      List.filter_map
        (function Space.VInt v -> Some v | Space.VStr _ -> None)
        (Space.values_of p)
    in
    match vs with
    | [] | [ _ ] -> []
    | _ ->
      (* Thresholds between consecutive legal values. *)
      let rec pairs = function
        | a :: (b :: _ as rest) -> (a, b) :: pairs rest
        | _ -> []
      in
      List.map (fun (a, _) -> CLe (n, a)) (pairs vs))
  | Space.PEnum (n, cs) ->
    if List.length cs <= 1 then []
    else List.map (fun c -> CIn (n, [ c ])) cs

let constr_param = function CLe (n, _) | CGt (n, _) | CIn (n, _) -> n

(* Does a parameter's value meet a constraint? A missing value, or one
   of the other kind, meets every constraint. *)
let holds c v =
  match (c, v) with
  | CLe (_, t), Some (Space.VInt x) -> x <= t
  | CGt (_, t), Some (Space.VInt x) -> x > t
  | CIn (_, allowed), Some (Space.VStr s) ->
    List.exists (String.equal s) allowed
  | _ -> true

let satisfies cfg c = holds c (Space.find cfg (constr_param c))

let negate_constr space = function
  | CLe (n, t) -> CGt (n, t)
  | CGt (n, t) -> CLe (n, t)
  | CIn (n, allowed) ->
    let all =
      List.concat_map
        (fun p ->
          if String.equal (Space.param_name p) n then
            List.filter_map
              (function Space.VStr s -> Some s | Space.VInt _ -> None)
              (Space.values_of p)
          else [])
        (Space.params space)
    in
    CIn (n, List.filter (fun s -> not (List.mem s allowed)) all)

(* The value table of one tree, built once per [build]: [cols.(j).(i)]
   is sample [i]'s value of the space's [j]th parameter. Nodes are
   arrays of sample indices in sample order. A candidate is scored by
   copying its node's latencies into [buf], left side first, through
   [right] for the right side, so scoring allocates nothing. *)
type table = {
  cols : Space.value option array array;
  lat : float array;
  buf : float array;
  right : float array;
}

let table space samples =
  let samples = Array.of_list samples in
  let n = Array.length samples in
  { cols =
      Array.of_list
        (List.map
           (fun p ->
             let read = Space.reader space (Space.param_name p) in
             Array.map (fun s -> read s.s_cfg) samples)
           (Space.params space));
    lat = Array.map (fun s -> s.s_latency) samples;
    buf = Array.make n 0.0;
    right = Array.make n 0.0 }

(* Information gain of splitting [node] on [c], a constraint on the
   parameter of column [col]; [neg_infinity] when one side is empty. *)
let score tbl col c node =
  let n_l = ref 0 and n_r = ref 0 in
  Array.iter
    (fun i ->
      if holds c col.(i) then begin
        tbl.buf.(!n_l) <- tbl.lat.(i);
        incr n_l
      end
      else begin
        tbl.right.(!n_r) <- tbl.lat.(i);
        incr n_r
      end)
    node;
  if !n_l = 0 || !n_r = 0 then neg_infinity
  else begin
    Array.blit tbl.right 0 tbl.buf !n_l !n_r;
    gain_of tbl.buf !n_l (!n_l + !n_r)
  end

(* The highest-gain candidate split of [node] among the parameters in
   [allowed_params] (every parameter when empty), with its column. A
   later candidate wins only with a strictly higher gain, and only a
   positive gain counts. *)
let best_split tbl space node ~allowed_params =
  let best = ref None in
  List.iteri
    (fun j p ->
      if allowed_params = [] || List.mem (Space.param_name p) allowed_params
      then
        List.iter
          (fun c ->
            let g = score tbl tbl.cols.(j) c node in
            match !best with
            | Some (_, _, gb) when gb >= g -> ()
            | _ -> if g > 0.0 then best := Some (j, c, g))
          (candidate_splits p))
    (Space.params space);
  !best

let build ?(depth = 3) ~rule_params space samples =
  let tbl = table space samples in
  let all = Array.init (Array.length tbl.lat) Fun.id in
  (* Choose the preferred rule set for the root split ("some-for-all"):
     the set whose best split has the highest information gain wins. *)
  let root_allowed =
    let scored =
      List.filter_map
        (fun rs ->
          match best_split tbl space all ~allowed_params:rs with
          | Some (_, _, g) -> Some (rs, g)
          | None -> None)
        rule_params
    in
    match scored with
    | [] -> []
    | (rs0, g0) :: rest ->
      fst
        (List.fold_left
           (fun (brs, bg) (rs, g) -> if g > bg then (rs, g) else (brs, bg))
           (rs0, g0) rest)
  in
  let rec grow space node constrs d ~allowed =
    let leaf = [ { p_constrs = List.rev constrs; p_space = space } ] in
    if d = 0 then leaf
    else
      match best_split tbl space node ~allowed_params:allowed with
      | None -> leaf
      | Some (j, c, _) ->
        let neg = negate_constr space c in
        let col = tbl.cols.(j) in
        let l, r =
          List.partition (fun i -> holds c col.(i)) (Array.to_list node)
        in
        grow (restrict space c) (Array.of_list l) (c :: constrs) (d - 1)
          ~allowed:[]
        @ grow (restrict space neg) (Array.of_list r) (neg :: constrs) (d - 1)
            ~allowed:[]
  in
  grow space all [] depth ~allowed:root_allowed
