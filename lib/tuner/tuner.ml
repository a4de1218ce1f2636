module Rng = S2fa_util.Rng
module Stats = S2fa_util.Stats
module Telemetry = S2fa_telemetry.Telemetry
module Obs = S2fa_obs.Obs

type eval_result = Resultdb.eval_result = {
  e_perf : float;
  e_feasible : bool;
  e_minutes : float;
}

type objective = Space.cfg -> eval_result

type outcome = {
  o_cfg : Space.cfg;
  o_perf : float;
  o_feasible : bool;
  o_minutes : float;
  o_improved : bool;
  o_technique : string;
  o_cache_hit : bool;
}

type stop_rule =
  | No_stop
  | Trivial_stop of int
  | Entropy_stop of { theta : float; consecutive : int; min_evals : int }

type t = {
  space : Space.space;
  objective : objective;
  rng : Rng.t;
  techniques : Technique.t array;
  bandit : Bandit.t;
  db : Resultdb.t option;
      (* Shared result database: evaluations are memoized through it, so a
         design point already measured by any tuner of the exploration
         costs a lookup (zero simulated minutes) instead of an HLS run. *)
  seen : (string, unit) Hashtbl.t;
      (* The {!Space.code}s of the proposed points: every point a tuner
         handles has its space's shape, seeds included once joined.
         Proposal-deduplication stays tuner-local even when the result DB
         is shared: techniques retry only on points *this* tuner proposed,
         so a tuner's trajectory is independent of who else shares the DB
         (the determinism contract of test_resultdb.ml). *)
  mutable pending_seeds : Space.cfg list;
  mutable best : (Space.cfg * float) option;
  mutable evaluated : int;
  mutable last : (Space.cfg * float) option;
  uphill_counts : (string, int) Hashtbl.t;
  mutable entropy_trace : float list;  (* newest first *)
  mutable no_improve_streak : int;
  mutable history : (int * float * float) list;  (* newest first *)
  trace : Telemetry.t option;
      (* Telemetry is read-only observation: it never draws from [rng] or
         touches the objective, so a traced and an untraced tuner under
         the same seed walk identical trajectories. *)
}

let create ?(seeds = []) ?db ?trace space objective rng =
  let techniques = Array.of_list (Technique.default_suite space rng) in
  { space;
    objective;
    rng;
    techniques;
    bandit =
      Bandit.create ?trace
        ~names:
          (Array.to_list (Array.map (fun t -> t.Technique.name) techniques))
        (Array.length techniques);
    db;
    seen = Hashtbl.create 64;
    pending_seeds = List.map (Space.join space) seeds;
    best = None;
    evaluated = 0;
    last = None;
    uphill_counts = Hashtbl.create 16;
    entropy_trace = [ 0.0 ];
    no_improve_streak = 0;
    history = [];
    trace }

let best t = t.best

let evaluated t = t.evaluated

let exhausted t =
  float_of_int (Hashtbl.length t.seen) >= Space.cardinality t.space

(* All evaluations funnel through here. With a result DB, this is also the
   duplicate-proposal fallback path: when [propose] gives up after 16
   retries and returns an already-seen point, re-measuring it costs a DB
   lookup (zero simulated minutes), not another HLS run. *)
let evaluate t cfg =
  Obs.span "tuner.evaluate" @@ fun () ->
  match t.db with
  | None ->
    Obs.count "resultdb.miss";
    (t.objective cfg, false)
  | Some db ->
    (* [peek] is the uncounted raw accessor, so asking whether this will
       be a hit leaves the database counters (and hence every report)
       exactly as they were. *)
    let hit = Resultdb.peek db cfg <> None in
    Obs.count (if hit then "resultdb.hit" else "resultdb.miss");
    (Resultdb.memoize db t.objective cfg, hit)

let current_entropy t =
  let counts =
    Hashtbl.fold (fun _ c acc -> float_of_int c :: acc) t.uphill_counts []
  in
  match counts with
  | [] -> 0.0
  | _ -> Stats.shannon_entropy (Array.of_list counts)

let entropy t = current_entropy t

let propose t =
  (* Seeds first; then bandit-selected technique, retrying on duplicates. *)
  match t.pending_seeds with
  | s :: rest ->
    t.pending_seeds <- rest;
    (s, None)
  | [] ->
    let rec attempt k =
      let arm = Bandit.select t.bandit t.rng in
      let cfg = t.techniques.(arm).Technique.propose ~best:t.best t.rng in
      let seen = Hashtbl.mem t.seen (Space.code cfg) in
      if seen && k < 16 then attempt (k + 1)
      else if seen then
        (* Fall back to a fresh random point. *)
        (Space.random_cfg t.rng t.space, Some arm)
      else (cfg, Some arm)
    in
    attempt 0

let record t cfg (r : eval_result) arm cache_hit =
  Obs.count
    (match arm with
    | Some a -> "technique." ^ t.techniques.(a).Technique.name
    | None -> "technique.seed");
  t.evaluated <- t.evaluated + 1;
  let improved =
    r.e_feasible
    && (match t.best with None -> true | Some (_, b) -> r.e_perf < b)
  in
  if improved then t.best <- Some (cfg, r.e_perf);
  t.no_improve_streak <- (if improved then 0 else t.no_improve_streak + 1);
  (match t.last with
  | Some (prev_cfg, prev_perf) when r.e_perf < prev_perf ->
    List.iter
      (fun p ->
        let c = Option.value ~default:0 (Hashtbl.find_opt t.uphill_counts p) in
        Hashtbl.replace t.uphill_counts p (c + 1))
      (Space.changed_params cfg prev_cfg)
  | _ -> ());
  t.last <- Some (cfg, r.e_perf);
  t.entropy_trace <- current_entropy t :: t.entropy_trace;
  (match arm with
  | Some a ->
    t.techniques.(a).Technique.feedback cfg r.e_perf;
    Bandit.reward t.bandit a improved
  | None ->
    Array.iter (fun tech -> tech.Technique.feedback cfg r.e_perf) t.techniques);
  let best_so_far = match t.best with Some (_, b) -> b | None -> infinity in
  t.history <- (t.evaluated, r.e_perf, best_so_far) :: t.history;
  (match t.trace with
  | None -> ()
  | Some tr ->
    Telemetry.emit tr
      (Telemetry.Entropy_sample
         { partition = Telemetry.partition tr;
           evaluated = t.evaluated;
           entropy = (match t.entropy_trace with e :: _ -> e | [] -> 0.0) }));
  { o_cfg = cfg;
    o_perf = r.e_perf;
    o_feasible = r.e_feasible;
    o_minutes = r.e_minutes;
    o_improved = improved;
    o_technique =
      (match arm with Some a -> t.techniques.(a).Technique.name | None -> "");
    o_cache_hit = cache_hit }

(* Trace a proposal as it enters measurement: seeds announce themselves
   (they bypass the bandit), then every evaluation gets an [eval_start]. *)
let trace_proposal t cfg arm =
  match t.trace with
  | None -> ()
  | Some tr ->
    let partition = Telemetry.partition tr in
    let key = Space.key cfg in
    if arm = None then
      Telemetry.emit tr (Telemetry.Seed_injected { cfg_key = key; partition });
    Telemetry.emit tr
      (Telemetry.Eval_start
         { cfg_key = key;
           partition;
           technique =
             (match arm with
             | Some a -> t.techniques.(a).Technique.name
             | None -> "") })

let step_batch t k =
  (* Propose the whole batch first: no proposal sees the results of its
     batch-mates, exactly like parallel measurement in OpenTuner. *)
  let proposals =
    List.init k (fun _ ->
        let cfg, arm = propose t in
        Hashtbl.replace t.seen (Space.code cfg) ();
        trace_proposal t cfg arm;
        (cfg, arm))
  in
  let measured =
    List.map (fun (cfg, arm) -> (cfg, arm, evaluate t cfg)) proposals
  in
  List.map (fun (cfg, arm, (r, hit)) -> record t cfg r arm hit) measured

let step t =
  let cfg, arm = propose t in
  Hashtbl.replace t.seen (Space.code cfg) ();
  trace_proposal t cfg arm;
  let r, hit = evaluate t cfg in
  record t cfg r arm hit

let should_stop t = function
  | No_stop -> false
  | Trivial_stop k -> t.no_improve_streak >= k
  | Entropy_stop { theta; consecutive; min_evals } ->
    t.evaluated >= min_evals
    &&
    let rec stable n = function
      | a :: (b :: _ as rest) ->
        if n = 0 then true
        else Float.abs (a -. b) <= theta && stable (n - 1) rest
      | _ -> n <= 0
    in
    stable consecutive t.entropy_trace

let technique_uses t =
  let uses = Bandit.uses t.bandit in
  Array.to_list
    (Array.mapi (fun i tech -> (tech.Technique.name, uses.(i))) t.techniques)

let history t = List.rev t.history
