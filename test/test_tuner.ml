(* OpenTuner-clone tests: spaces, techniques, bandit, driver, stopping. *)
module Rng = S2fa_util.Rng
module Space = S2fa_tuner.Space
module Technique = S2fa_tuner.Technique
module Bandit = S2fa_tuner.Bandit
module Tuner = S2fa_tuner.Tuner
module Partition = S2fa_dse.Partition

let demo_params =
  [ Space.PPow2 ("par", 1, 64);
    Space.PInt ("depth", 0, 5);
    Space.PEnum ("pipe", [ "off"; "on"; "flatten" ]) ]

let demo_space = Space.make demo_params

(* Does [cfg] bind every parameter of [demo_space] to a legal value? *)
let legal cfg =
  List.for_all
    (fun p ->
      match Space.find cfg (Space.param_name p) with
      | Some v -> List.mem v (Space.values_of p)
      | None -> false)
    demo_params

(* ---------- space ---------- *)

let test_values_of () =
  Alcotest.(check int) "pow2 values" 7
    (List.length (Space.values_of (List.nth demo_params 0)));
  Alcotest.(check int) "int values" 6
    (List.length (Space.values_of (List.nth demo_params 1)));
  Alcotest.(check int) "enum values" 3
    (List.length (Space.values_of (List.nth demo_params 2)))

let test_cardinality () =
  Alcotest.(check (float 1e-9)) "7*6*3" 126.0 (Space.cardinality demo_space)

let test_random_cfg_legal () =
  let rng = Rng.create 1 in
  for _ = 1 to 200 do
    let cfg = Space.random_cfg rng demo_space in
    Alcotest.(check bool) "legal values" true (legal cfg)
  done

let test_mutate_changes_something () =
  let rng = Rng.create 2 in
  let cfg = Space.random_cfg rng demo_space in
  for _ = 1 to 100 do
    let cfg' = Space.mutate rng demo_space cfg in
    Alcotest.(check bool) "differs" true (Space.key cfg <> Space.key cfg')
  done

let test_neighbor_changes_exactly_one () =
  let rng = Rng.create 3 in
  let cfg = Space.random_cfg rng demo_space in
  for _ = 1 to 100 do
    let cfg' = Space.neighbor rng demo_space cfg in
    let changed = Space.changed_params cfg cfg' in
    Alcotest.(check bool) "at most one change" true (List.length changed <= 1)
  done

let test_floats_roundtrip () =
  let rng = Rng.create 4 in
  for _ = 1 to 100 do
    let cfg = Space.random_cfg rng demo_space in
    let cfg' = Space.of_floats demo_space (Space.to_floats demo_space cfg) in
    Alcotest.(check string) "roundtrip" (Space.key cfg) (Space.key cfg')
  done

let test_get_set () =
  let cfg =
    Space.of_list [ ("par", Space.VInt 8); ("pipe", Space.VStr "on") ]
  in
  Alcotest.(check int) "get_int" 8 (Space.get_int cfg "par");
  Alcotest.(check string) "get_str" "on" (Space.get_str cfg "pipe");
  let cfg' = Space.set cfg "par" (Space.VInt 16) in
  Alcotest.(check int) "set" 16 (Space.get_int cfg' "par")

(* ---------- bandit ---------- *)

let test_bandit_explores_all_first () =
  let b = Bandit.create 4 in
  let rng = Rng.create 5 in
  let picked = Array.make 4 false in
  for _ = 1 to 4 do
    picked.(Bandit.select b rng) <- true
  done;
  Alcotest.(check bool) "all arms tried once" true (Array.for_all Fun.id picked)

let test_bandit_prefers_rewarded () =
  let b = Bandit.create 3 in
  let rng = Rng.create 6 in
  (* Arm 1 always improves, the others never. *)
  for _ = 1 to 300 do
    let arm = Bandit.select b rng in
    Bandit.reward b arm (arm = 1)
  done;
  let uses = Bandit.uses b in
  Alcotest.(check bool) "arm 1 used most" true
    (uses.(1) > uses.(0) && uses.(1) > uses.(2))

let test_bandit_auc_scores () =
  let b = Bandit.create 2 in
  let rng = Rng.create 7 in
  for _ = 1 to 50 do
    let arm = Bandit.select b rng in
    Bandit.reward b arm (arm = 0)
  done;
  let s = Bandit.auc_scores b in
  Alcotest.(check bool) "winner scored higher" true (s.(0) > s.(1))

(* ---------- techniques ---------- *)

let test_techniques_propose_legal () =
  let rng = Rng.create 8 in
  List.iter
    (fun (t : Technique.t) ->
      for _ = 1 to 50 do
        let cfg = t.Technique.propose ~best:None rng in
        Alcotest.(check bool) (t.Technique.name ^ " legal") true (legal cfg)
      done)
    (Technique.default_suite demo_space (Rng.create 9))

(* A synthetic objective with a known optimum: par=64, depth=5, pipe=on. *)
let synthetic cfg =
  let par = Space.get_int cfg "par" in
  let depth = Space.get_int cfg "depth" in
  let pipe = Space.get_str cfg "pipe" in
  let perf =
    (100.0 /. float_of_int par)
    +. float_of_int (5 - depth)
    +. (match pipe with "on" -> 0.0 | "flatten" -> 2.0 | _ -> 10.0)
  in
  { Tuner.e_perf = perf; e_feasible = true; e_minutes = 1.0 }

let test_tuner_converges () =
  let rng = Rng.create 10 in
  let t = Tuner.create demo_space synthetic rng in
  for _ = 1 to 120 do
    ignore (Tuner.step t)
  done;
  match Tuner.best t with
  | Some (_, perf) ->
    (* optimum is 100/64 + 0 + 0 ~ 1.5625 *)
    Alcotest.(check bool) "near optimum" true (perf < 4.0)
  | None -> Alcotest.fail "no best found"

let test_tuner_seeds_evaluated_first () =
  let seed =
    Space.of_list
      [ ("par", Space.VInt 64); ("depth", Space.VInt 5);
        ("pipe", Space.VStr "on") ]
  in
  let t = Tuner.create ~seeds:[ seed ] demo_space synthetic (Rng.create 11) in
  let o = Tuner.step t in
  Alcotest.(check string) "first eval is the seed" (Space.key seed)
    (Space.key o.Tuner.o_cfg);
  Alcotest.(check bool) "improved" true o.Tuner.o_improved

let test_tuner_infeasible_never_best () =
  let objective _ =
    { Tuner.e_perf = infinity; e_feasible = false; e_minutes = 1.0 }
  in
  let t = Tuner.create demo_space objective (Rng.create 12) in
  for _ = 1 to 30 do
    ignore (Tuner.step t)
  done;
  Alcotest.(check bool) "no best" true (Tuner.best t = None)

let test_trivial_stop () =
  let objective _ =
    { Tuner.e_perf = 1.0; e_feasible = true; e_minutes = 1.0 }
  in
  let t = Tuner.create demo_space objective (Rng.create 13) in
  (* First eval improves (1.0 < inf); everything after ties. *)
  for _ = 1 to 11 do
    ignore (Tuner.step t)
  done;
  Alcotest.(check bool) "10 non-improving stops" true
    (Tuner.should_stop t (Tuner.Trivial_stop 10));
  Alcotest.(check bool) "not at 11" false
    (Tuner.should_stop t (Tuner.Trivial_stop 11))

let test_entropy_stop_triggers () =
  let objective _ =
    { Tuner.e_perf = 1.0; e_feasible = true; e_minutes = 1.0 }
  in
  let t = Tuner.create demo_space objective (Rng.create 14) in
  let rule =
    Tuner.Entropy_stop { theta = 0.02; consecutive = 3; min_evals = 8 }
  in
  for _ = 1 to 7 do
    ignore (Tuner.step t)
  done;
  Alcotest.(check bool) "not before min_evals" false (Tuner.should_stop t rule);
  for _ = 1 to 5 do
    ignore (Tuner.step t)
  done;
  (* Constant performance: the uphill distribution never changes, so the
     entropy is flat and the criterion fires. *)
  Alcotest.(check bool) "fires after min_evals" true (Tuner.should_stop t rule)

let test_step_batch_no_intermediate_feedback () =
  let calls = ref [] in
  let objective cfg =
    calls := Space.key cfg :: !calls;
    { Tuner.e_perf = 1.0; e_feasible = true; e_minutes = 1.0 }
  in
  let t = Tuner.create demo_space objective (Rng.create 15) in
  let batch = Tuner.step_batch t 8 in
  Alcotest.(check int) "eight outcomes" 8 (List.length batch);
  Alcotest.(check int) "eight evaluations" 8 (List.length !calls);
  Alcotest.(check int) "tuner counted them" 8 (Tuner.evaluated t)

let test_technique_uses_sum () =
  let t = Tuner.create demo_space synthetic (Rng.create 16) in
  for _ = 1 to 40 do
    ignore (Tuner.step t)
  done;
  let uses = Tuner.technique_uses t in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 uses in
  (* Duplicate proposals are retried on a fresh arm, so selections can
     exceed evaluations but never undershoot them. *)
  Alcotest.(check bool) "uses >= evaluations" true (total >= 40);
  Alcotest.(check int) "all four techniques listed" 4 (List.length uses)

let test_history_monotone_best () =
  let t = Tuner.create demo_space synthetic (Rng.create 17) in
  for _ = 1 to 60 do
    ignore (Tuner.step t)
  done;
  let rec check_mono prev = function
    | [] -> ()
    | (_, _, best) :: rest ->
      Alcotest.(check bool) "best never worsens" true (best <= prev +. 1e-12);
      check_mono best rest
  in
  check_mono infinity (Tuner.history t)

(* property: mutation stays within the space *)
let prop_mutation_legal =
  QCheck.Test.make ~name:"mutation stays legal" ~count:300
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let cfg = Space.random_cfg rng demo_space in
      legal (Space.mutate rng demo_space cfg))

(* The definitions [Space.key] and [Space.normalize] had before they
   stopped going through Printf and polymorphic compare, as oracles of
   [Space.of_list] and [Space.key]. *)
let old_normalize cfg = List.sort (fun (a, _) (b, _) -> compare a b) cfg

let old_key cfg =
  String.concat ";"
    (List.map
       (fun (n, v) ->
         match v with
         | Space.VInt i -> Printf.sprintf "%s=%d" n i
         | Space.VStr s -> Printf.sprintf "%s=%s" n s)
       (old_normalize cfg))

(* Configurations of 0-12 bindings over a few names, so that names repeat
   and lists come sorted or not; values include negative and extreme
   ints and odd strings. Half of them are sorted first. *)
let random_bindings rng =
  let names = [| ""; "a"; "ab"; "b"; "B"; "par_L10"; "par_L9"; "tile_L1" |] in
  let value () =
    match Rng.int rng 4 with
    | 0 -> Space.VInt (Rng.choose rng [| min_int; -1; 0; max_int |])
    | 1 -> Space.VInt (Rng.int_in rng (-1000) 1000)
    | 2 -> Space.VStr (Rng.choose rng [| ""; "on"; "a=b;c"; "flatten" |])
    | _ -> Space.VInt (1 lsl Rng.int rng 12)
  in
  let cfg =
    List.init (Rng.int rng 13) (fun _ -> (Rng.choose rng names, value ()))
  in
  if Rng.bool rng then old_normalize cfg else cfg

let prop_key_normalize_unchanged =
  QCheck.Test.make ~name:"key and normalize unchanged" ~count:1000
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let cfg = random_bindings (Rng.create seed) in
      Space.to_list (Space.of_list cfg) = old_normalize cfg
      && String.equal (Space.key (Space.of_list cfg)) (old_key cfg))

(* ---------- the list-based space, frozen as the oracle ---------- *)

(* [Space] and [Partition.restrict]/[project] as they were when a
   configuration was an association list sorted by name, verbatim but
   for the module paths. The indexed space must make the same RNG draws
   and give the same keys. *)
module Frozen = struct
  open Space

  let values_of = Space.values_of

  let by_name (a, _) (b, _) = String.compare a b

  let rec sorted = function
    | a :: (b :: _ as rest) -> by_name a b <= 0 && sorted rest
    | _ -> true

  let normalize cfg = if sorted cfg then cfg else List.stable_sort by_name cfg

  let set cfg name v = normalize ((name, v) :: List.remove_assoc name cfg)

  let random_value rng p = Rng.choose_list rng (values_of p)

  let random_cfg rng space =
    normalize (List.map (fun p -> (param_name p, random_value rng p)) space)

  let mutate rng space cfg =
    let rate = 0.25 in
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

  let restrict space c =
    List.map
      (fun p ->
        match (p, c) with
        | PPow2 (n, lo, hi), Partition.CLe (cn, t) when String.equal n cn ->
          PPow2 (n, lo, min hi t)
        | PPow2 (n, lo, hi), Partition.CGt (cn, t) when String.equal n cn ->
          PPow2 (n, max lo (t + 1), hi)
        | PInt (n, lo, hi), Partition.CLe (cn, t) when String.equal n cn ->
          PInt (n, lo, min hi t)
        | PInt (n, lo, hi), Partition.CGt (cn, t) when String.equal n cn ->
          PInt (n, max lo (t + 1), hi)
        | PEnum (n, cs), Partition.CIn (cn, allowed) when String.equal n cn ->
          let kept = List.filter (fun x -> List.mem x allowed) cs in
          PEnum (n, if kept = [] then cs else kept)
        | _ -> p)
      space

  let project space cfg =
    List.map
      (fun p ->
        let name = param_name p in
        let legal = values_of p in
        let cur =
          match List.assoc_opt name cfg with
          | Some v -> v
          | None -> List.hd legal
        in
        if List.mem cur legal then (name, cur)
        else begin
          match cur with
          | VInt x ->
            let best =
              List.fold_left
                (fun acc v ->
                  match (acc, v) with
                  | None, VInt _ -> Some v
                  | Some (VInt b), VInt y ->
                    if abs (y - x) < abs (b - x) then Some v else acc
                  | _ -> acc)
                None legal
            in
            (name, Option.value ~default:(List.hd legal) best)
          | VStr _ -> (name, List.hd legal)
        end)
      space
    |> normalize
end

(* A random space of 1-40 parameters of every kind under names that
   sort apart from their declaration order, and 0-3 constraints of the
   kinds the partition tree draws to narrow it. *)
let random_space rng =
  let words = [| "off"; "on"; "flatten"; "a"; "b"; "x=y"; ""; "z" |] in
  let params =
    List.init (Rng.int_in rng 1 40) (fun i ->
        let n = Printf.sprintf "%c%d" (Char.chr (97 + Rng.int rng 26)) i in
        match Rng.int rng 3 with
        | 0 ->
          let lo = Rng.int_in rng (-5) 5 in
          Space.PInt (n, lo, lo + Rng.int rng 12)
        | 1 ->
          let lo = Rng.int_in rng 0 8 in
          let rec up v = if v >= lo then v else up (2 * v) in
          Space.PPow2 (n, lo, up 1 lsl Rng.int rng 9)
        | _ ->
          let ws = Array.copy words in
          Rng.shuffle rng ws;
          Space.PEnum (n, Array.to_list (Array.sub ws 0 (Rng.int_in rng 1 8))))
  in
  let narrow params =
    let p = Rng.choose_list rng params in
    match (p, Space.values_of p) with
    | (Space.PInt (n, _, _) | Space.PPow2 (n, _, _)), (_ :: _ :: _ as vs) -> (
      let t =
        match List.nth vs (Rng.int rng (List.length vs - 1)) with
        | Space.VInt t -> t
        | Space.VStr _ -> assert false
      in
      match Rng.bool rng with
      | true -> Some (Partition.CLe (n, t))
      | false -> Some (Partition.CGt (n, t)))
    | Space.PEnum (n, cs), _ :: _ :: _ ->
      Some (Partition.CIn (n, List.filter (fun _ -> Rng.bool rng) cs))
    | _ -> None
  in
  (* Each constraint splits the space the previous ones left, as a
     deeper tree node does. *)
  let rec constrs k narrowed =
    if k = 0 then []
    else
      match narrow narrowed with
      | None -> constrs (k - 1) narrowed
      | Some c -> c :: constrs (k - 1) (Frozen.restrict narrowed c)
  in
  (params, constrs (Rng.int rng 4) params)

(* Bindings over the space's names and a few others, some dropped or of
   the wrong kind, some out of range. *)
let random_list rng params =
  List.concat_map
    (fun p ->
      let n = Space.param_name p in
      match Rng.int rng 8 with
      | 0 -> []
      | 1 -> [ (n, Space.VStr "on") ]
      | 2 -> [ (n, Space.VInt (Rng.int_in rng (-40) 600)) ]
      | 3 -> [ ("~" ^ n, Space.VInt 1); (n, Space.VStr "flatten") ]
      | _ -> [ (n, Rng.choose_list rng (Space.values_of p)) ])
    params

let prop_space_matches_frozen =
  QCheck.Test.make ~name:"indexed space = frozen list space" ~count:400
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let gen = Rng.create seed in
      let params, constrs = random_space gen in
      let root = Space.make params in
      let sub_params = List.fold_left Frozen.restrict params constrs in
      let sub = List.fold_left Partition.restrict root constrs in
      (* Each check runs the frozen and the indexed call from equal RNG
         states and compares their keys, then the RNG states. *)
      let a = Rng.create (seed + 1) and b = Rng.create (seed + 1) in
      let ok = ref true in
      let same old_key new_key =
        ok :=
          !ok
          && String.equal old_key new_key
          && Int64.equal (Rng.int64 a) (Rng.int64 b)
      in
      let pair old_cfg cfg = same (Frozen.key old_cfg) (Space.key cfg) in
      let drawn old_draw new_draw =
        let o = old_draw a and n = new_draw b in
        pair o n;
        (o, n)
      in
      let root_cfg =
        drawn
          (fun r -> Frozen.random_cfg r params)
          (fun r -> Space.random_cfg r root)
      in
      let sub_cfg =
        drawn
          (fun r -> Frozen.random_cfg r sub_params)
          (fun r -> Space.random_cfg r sub)
      in
      (* An [of_list] configuration of the legal values, joined. *)
      let listed =
        let l = Frozen.random_cfg gen sub_params in
        (l, Space.join sub (Space.of_list (List.rev l)))
      in
      List.iter
        (fun (o, n) ->
          for _ = 1 to 3 do
            let o', n' =
              drawn
                (fun r -> Frozen.mutate r sub_params o)
                (fun r -> Space.mutate r sub n)
            in
            ok :=
              !ok && Frozen.changed_params o' o = Space.changed_params n' n;
            let o', n' =
              drawn
                (fun r -> Frozen.neighbor r sub_params o)
                (fun r -> Space.neighbor r sub n)
            in
            ok :=
              !ok && Frozen.changed_params o o' = Space.changed_params n n'
          done;
          let fo = Frozen.to_floats sub_params o
          and fn = Space.to_floats sub n in
          ok :=
            !ok
            && Array.for_all2
                 (fun x y ->
                   Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
                 fo fn;
          pair (Frozen.project sub_params o) (Space.project sub n))
        [ root_cfg; sub_cfg; listed ];
      let xs =
        Array.init (List.length params) (fun _ -> Rng.float gen 1.6 -. 0.3)
      in
      pair (Frozen.of_floats sub_params xs) (Space.of_floats sub xs);
      let l = random_list gen params in
      pair (Frozen.project sub_params l) (Space.project sub (Space.of_list l));
      pair (Frozen.set l "b0" (Space.VInt 3))
        (Space.set (Space.of_list l) "b0" (Space.VInt 3));
      !ok)

let () =
  Alcotest.run "tuner"
    [ ( "space",
        [ Alcotest.test_case "values_of" `Quick test_values_of;
          Alcotest.test_case "cardinality" `Quick test_cardinality;
          Alcotest.test_case "random legal" `Quick test_random_cfg_legal;
          Alcotest.test_case "mutate changes" `Quick
            test_mutate_changes_something;
          Alcotest.test_case "neighbor single change" `Quick
            test_neighbor_changes_exactly_one;
          Alcotest.test_case "floats roundtrip" `Quick test_floats_roundtrip;
          Alcotest.test_case "get/set" `Quick test_get_set ] );
      ( "bandit",
        [ Alcotest.test_case "explores all arms" `Quick
            test_bandit_explores_all_first;
          Alcotest.test_case "prefers rewarded" `Quick
            test_bandit_prefers_rewarded;
          Alcotest.test_case "auc scores" `Quick test_bandit_auc_scores ] );
      ( "tuner",
        [ Alcotest.test_case "techniques legal" `Quick
            test_techniques_propose_legal;
          Alcotest.test_case "converges on synthetic" `Quick
            test_tuner_converges;
          Alcotest.test_case "seeds first" `Quick
            test_tuner_seeds_evaluated_first;
          Alcotest.test_case "infeasible never best" `Quick
            test_tuner_infeasible_never_best;
          Alcotest.test_case "trivial stop" `Quick test_trivial_stop;
          Alcotest.test_case "entropy stop" `Quick test_entropy_stop_triggers;
          Alcotest.test_case "batch stepping" `Quick
            test_step_batch_no_intermediate_feedback;
          Alcotest.test_case "technique uses" `Quick test_technique_uses_sum;
          Alcotest.test_case "history monotone" `Quick test_history_monotone_best
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_mutation_legal;
            prop_key_normalize_unchanged;
            prop_space_matches_frozen ] ) ]
