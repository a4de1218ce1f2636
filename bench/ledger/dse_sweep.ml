(* dse-sweep: [S2fa.explore] with default options (the path behind
   [s2fa dse]) on every kernel for 48 consecutive seeds. It runs the
   tuner, DSE driver, Merlin and the HLS estimator, and never reaches
   value computation, the serving event core or the symbolic verifier,
   so a change confined to those must leave this workload flat. *)

module W = S2fa_workloads.Workloads
module S2fa = S2fa_core.S2fa
module Driver = S2fa_dse.Driver
module Estimate = S2fa_hls.Estimate
module Tuner = S2fa_tuner.Tuner
module Space = S2fa_tuner.Space
module Rng = S2fa_util.Rng
module Telemetry = S2fa_telemetry.Telemetry
module Stats = S2fa_util.Stats
module M = Measure

type kernel = {
  k_name : string;
  k_compiled : S2fa.compiled;
  k_manual : float;  (** Quality of the expert design (lower wins). *)
}

type run = {
  r_kernel : kernel;
  r_seed : int;
  r_result : Driver.run_result;
}

let best_of r =
  match r.r_result.Driver.rr_best with
  | Some (cfg, q) when Float.is_finite q -> Some (cfg, q)
  | _ -> None

(* A run fails when it found nothing feasible, or when re-evaluating its
   best design does not reproduce the recorded quality bit for bit. *)
let run_ok r =
  match best_of r with
  | None -> false
  | Some (cfg, q) ->
    M.bits_equal (S2fa.objective r.r_kernel.k_compiled cfg).Tuner.e_perf q

(* Virtual minute at which the run first reached its final best. *)
let minute_of_best r =
  match List.rev (Driver.best_curve r.r_result) with
  | (m, _) :: _ -> m
  | [] -> r.r_result.Driver.rr_minutes

let outcome runs ~seconds ~op_seconds =
  let ok = List.filter run_ok runs in
  let mean f = Stats.mean (Array.of_list (List.map f ok)) in
  let d = Buffer.create 4096 in
  List.iter
    (fun r ->
      let rr = r.r_result in
      Printf.bprintf d "%s %d %s %h %h %d\n" r.r_kernel.k_name r.r_seed
        (match rr.Driver.rr_best with
        | Some (cfg, q) -> Printf.sprintf "%s %h" (Space.key cfg) q
        | None -> "-")
        rr.Driver.rr_minutes (minute_of_best r) rr.Driver.rr_evals)
    runs;
  { M.ops = List.length runs;
    failed = List.length runs - List.length ok;
    seconds;
    op_seconds;
    exact =
      [ ("dse_vmin_total", mean (fun r -> r.r_result.Driver.rr_minutes));
        ("dse_vmin_to_best", mean minute_of_best);
        ( "dse_qor_vs_manual",
          Stats.geometric_mean
            (Array.of_list
               (List.map
                  (fun r ->
                    match best_of r with
                    | Some (_, q) -> r.r_kernel.k_manual /. q
                    | None -> assert false)
                  ok)) ) ];
    digest = M.digest_of_buffer d }

(* [S2fa.objective] at its default task count, rebuilt from the same
   public calls so that each layer can be timed on its own. The traced
   run must reproduce the untraced one exactly, which checks that this
   copy agrees with the library's. *)
let objective_tasks = 4096

let timed_objective laps c cfg =
  let prog = M.lap laps "merlin.apply_s" (fun () -> S2fa.apply_design c cfg) in
  let r =
    M.lap laps "hls.estimate_s" (fun () ->
        Estimate.estimate prog ~tasks:objective_tasks
          ~buffer_elems:c.S2fa.c_buffer_elems)
  in
  M.add laps "objective.calls" 1.0;
  { Tuner.e_perf =
      (if r.Estimate.r_feasible then
         Float.max r.Estimate.r_compute_seconds r.Estimate.r_xfer_seconds
       else infinity);
    e_feasible = r.Estimate.r_feasible;
    e_minutes = r.Estimate.r_eval_minutes }

let same_result (a : Driver.run_result) (b : Driver.run_result) =
  a.Driver.rr_evals = b.Driver.rr_evals
  && M.bits_equal a.Driver.rr_minutes b.Driver.rr_minutes
  &&
  match (a.Driver.rr_best, b.Driver.rr_best) with
  | Some (c1, q1), Some (c2, q2) ->
    String.equal (Space.key c1) (Space.key c2) && M.bits_equal q1 q2
  | None, None -> true
  | _ -> false

let setup ~seed ~smoke laps =
  let names =
    if smoke then [ "PR"; "KMeans" ]
    else List.map (fun (w : W.t) -> w.W.w_name) W.all
  in
  let seeds = List.init (if smoke then 2 else 48) (fun i -> seed + i) in
  let kernels =
    List.map
      (fun name ->
        let w = Option.get (W.find name) in
        let c = M.lap laps "workloads.compile_s" (fun () -> W.compile w) in
        let manual = (S2fa.objective c (W.manual_design w c)).Tuner.e_perf in
        if not (Float.is_finite manual) then
          failwith (Printf.sprintf "dse-sweep: %s manual design infeasible" name);
        { k_name = name; k_compiled = c; k_manual = manual })
      names
  in
  let cases =
    List.concat_map (fun k -> List.map (fun s -> (k, s)) seeds) kernels
  in
  let last = ref [] in
  let unit_ () =
    let timed =
      List.map
        (fun (k, s) ->
          let rr, dt =
            M.time (fun () -> S2fa.explore k.k_compiled (Rng.create s))
          in
          ({ r_kernel = k; r_seed = s; r_result = rr }, dt))
        cases
    in
    let runs = List.map fst timed in
    last := runs;
    let op_seconds = Array.of_list (List.map snd timed) in
    outcome runs ~seconds:(Array.fold_left ( +. ) 0.0 op_seconds) ~op_seconds
  in
  let traced ~untraced_s =
    let l = M.laps () in
    let sink, sk = Sink.create () in
    let timed =
      List.map
        (fun (k, s) ->
          let c = k.k_compiled in
          let rr, dt =
            M.time (fun () ->
                Driver.run_s2fa
                  ~trace:(Telemetry.create ~sinks:[ sk ] ())
                  c.S2fa.c_dspace
                  (timed_objective l c) (Rng.create s))
          in
          ({ r_kernel = k; r_seed = s; r_result = rr }, dt))
        cases
    in
    let runs = List.map fst timed in
    let op_seconds = Array.of_list (List.map snd timed) in
    let seconds = Array.fold_left ( +. ) 0.0 op_seconds in
    let o = outcome runs ~seconds ~op_seconds in
    (* The traced runs must walk the untraced trajectories, and the sink
       must have seen every search evaluation the runs report. *)
    let diverged =
      List.length !last <> List.length runs
      || List.exists2
           (fun a b -> not (same_result a.r_result b.r_result))
           !last runs
    in
    let evals =
      List.fold_left (fun n r -> n + r.r_result.Driver.rr_evals) 0 runs
    in
    if diverged then prerr_endline "dse-sweep: traced runs diverged";
    if sink.Sink.evals <> evals then
      Printf.eprintf "dse-sweep: sink saw %d evaluations, runs report %d\n"
        sink.Sink.evals evals;
    let o =
      if diverged || sink.Sink.evals <> evals then
        { o with M.failed = o.M.failed + 1 }
      else o
    in
    let objective_s = M.get l "merlin.apply_s" +. M.get l "hls.estimate_s" in
    let calls = M.get l "objective.calls" in
    ( o,
      [ ("merlin.apply_s", M.get l "merlin.apply_s");
        ("merlin.calls", calls);
        ("hls.estimate_s", M.get l "hls.estimate_s");
        ("hls.evals", calls);
        (* Driver, partitioning and tuner: the untraced run time the
           objective does not account for. *)
        ("dse.self_s", untraced_s -. objective_s);
        ("dse.evals", float_of_int sink.Sink.evals);
        ("dse.offline_evals", float_of_int sink.Sink.offline_evals);
        ("dse.partitions", float_of_int sink.Sink.partitions);
        ("dse.stop_entropy", float_of_int sink.Sink.stop_entropy);
        ("dse.stop_time", float_of_int sink.Sink.stop_time);
        ( "tuner.feasible_ratio",
          float_of_int sink.Sink.feasible /. float_of_int (max 1 sink.Sink.evals)
        ) ] )
  in
  { M.unit_; traced }

let workload = { M.name = "dse-sweep"; units = 3; setup }
