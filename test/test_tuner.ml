(* OpenTuner-clone tests: spaces, techniques, bandit, driver, stopping. *)
module Rng = S2fa_util.Rng
module Space = S2fa_tuner.Space
module Technique = S2fa_tuner.Technique
module Bandit = S2fa_tuner.Bandit
module Tuner = S2fa_tuner.Tuner

let demo_space =
  [ Space.PPow2 ("par", 1, 64);
    Space.PInt ("depth", 0, 5);
    Space.PEnum ("pipe", [ "off"; "on"; "flatten" ]) ]

(* ---------- space ---------- *)

let test_values_of () =
  Alcotest.(check int) "pow2 values" 7
    (List.length (Space.values_of (List.nth demo_space 0)));
  Alcotest.(check int) "int values" 6
    (List.length (Space.values_of (List.nth demo_space 1)));
  Alcotest.(check int) "enum values" 3
    (List.length (Space.values_of (List.nth demo_space 2)))

let test_cardinality () =
  Alcotest.(check (float 1e-9)) "7*6*3" 126.0 (Space.cardinality demo_space)

let test_random_cfg_legal () =
  let rng = Rng.create 1 in
  for _ = 1 to 200 do
    let cfg = Space.random_cfg rng demo_space in
    List.iter
      (fun p ->
        let v = List.assoc (Space.param_name p) cfg in
        Alcotest.(check bool) "legal value" true
          (List.mem v (Space.values_of p)))
      demo_space
  done

let test_mutate_changes_something () =
  let rng = Rng.create 2 in
  let cfg = Space.random_cfg rng demo_space in
  for _ = 1 to 100 do
    let cfg' = Space.mutate rng demo_space cfg () in
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
  let cfg = [ ("par", Space.VInt 8); ("pipe", Space.VStr "on") ] in
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
        List.iter
          (fun p ->
            let v = List.assoc (Space.param_name p) cfg in
            Alcotest.(check bool)
              (t.Technique.name ^ " legal")
              true
              (List.mem v (Space.values_of p)))
          demo_space
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
  let seed = [ ("par", Space.VInt 64); ("depth", Space.VInt 5);
               ("pipe", Space.VStr "on") ] in
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
      let cfg' = Space.mutate rng demo_space cfg () in
      List.for_all
        (fun p -> List.mem (List.assoc (Space.param_name p) cfg')
            (Space.values_of p))
        demo_space)

(* The definitions [Space.key] and [Space.normalize] had before they
   stopped going through Printf and polymorphic compare, as oracles. *)
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
      Space.normalize cfg = old_normalize cfg
      && String.equal (Space.key cfg) (old_key cfg))

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
          [ prop_mutation_legal; prop_key_normalize_unchanged ] ) ]
