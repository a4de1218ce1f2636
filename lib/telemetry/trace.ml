module T = Telemetry

type t = { t_events : T.event list }

let of_events evs =
  { t_events =
      List.sort (fun (a : T.event) b -> compare a.T.e_seq b.T.e_seq) evs }

let decode n fields =
  match T.event_of_fields fields with
  | Some ev -> ev
  | None -> T.Json.bad_line n "not a trace event"

let parse_lines lines =
  Result.map of_events (T.Json.decode_lines ~file:"trace" lines decode)

let load path = Result.map of_events (T.Json.read_jsonl path decode)

(* Best-so-far reconstruction. This mirrors Driver.best_curve operation
   for operation (same sort, same fold, same comparisons) over the same
   event sequence, so the floats come out bit-identical. *)
let best_curve t =
  let evals =
    List.filter_map
      (fun (e : T.event) ->
        match e.T.e_kind with
        | T.Eval_done d when d.partition >= 0 ->
          Some (e.T.e_minutes, d.quality, d.feasible)
        | _ -> None)
      t.t_events
  in
  let sorted =
    List.sort (fun (a, _, _) (b, _, _) -> compare a b) evals
  in
  let _, rev =
    List.fold_left
      (fun (best, acc) (minutes, perf, feasible) ->
        if feasible && perf < best then (perf, (minutes, perf) :: acc)
        else (best, acc))
      (infinity, []) sorted
  in
  List.rev rev

type occ_row = {
  oc_partition : int;
  oc_core : int;
  oc_start : float;
  oc_stop : float;
  oc_evals : int;
  oc_reason : T.stop_reason;
}

type attr_row = {
  at_technique : string;
  at_proposals : int;
  at_wins : int;
  at_best : float;
}

type fault_row = { fl_class : string; fl_count : int; fl_lost : float }

type serve_row = {
  sv_app : string;
  sv_enqueued : int;
  sv_completed : int;
  sv_fallbacks : int;
  sv_p50_ms : float;
  sv_p95_ms : float;
  sv_p99_ms : float;
}

type replay = {
  rp_flow : string;
  rp_cores : int;
  rp_limit : float;
  rp_minutes : float;
  rp_evals : int;
  rp_offline : int;
  rp_feasible : int;
  rp_cache_hits : int;
  rp_best : float;
  rp_curve : (float * float) list;
  rp_occupancy : occ_row list;
  rp_attribution : attr_row list;
  rp_entropy : (int * (float * float) list) list;
  rp_faults : fault_row list;
  rp_retries : int;
  rp_backoff_minutes : float;
  rp_quarantined : int;
  rp_cores_lost : int;
  rp_failovers : int;
  rp_checkpoints : int;
  rp_serve_batches : int;
  rp_serve_reconfigs : int;
  rp_serve_shed : int;
  rp_serve_timeouts : int;
  rp_serve_hedges : int;
  rp_serve_breaker_trips : int;
  rp_serve_deadline_hits : int;
  rp_serve_deadline_misses : int;
  rp_serve_apps : serve_row list;
  rp_fed_routed : int;
  rp_fed_leases : int;
  rp_fed_releases : int;
  rp_fed_retunes : int;
  rp_fed_promotions : int;
  rp_fed_rtt_minutes : float;
  rp_fed_tune_minutes : float;
  rp_eval_minutes : float;
  rp_offline_minutes : float;
  rp_fault_minutes : float;
  rp_service_minutes : float;
  rp_reconfig_minutes : float;
}

let replay t =
  let flow = ref "?" and cores = ref 0 and limit = ref 0.0 in
  let minutes = ref 0.0 in
  let evals = ref 0 and offline = ref 0 in
  let feasible = ref 0 and hits = ref 0 in
  let best = ref infinity in
  let starts = Hashtbl.create 16 in
  let occ = ref [] in
  let attr = Hashtbl.create 8 in
  let entropy = Hashtbl.create 16 in
  let faults = Hashtbl.create 4 in
  let retries = ref 0 and backoff = ref 0.0 in
  let quarantined = ref 0 in
  let cores_lost = ref 0 and failovers = ref 0 and checkpoints = ref 0 in
  let serve_batches = ref 0 and serve_reconfigs = ref 0 in
  let serve_shed = ref 0 and serve_timeouts = ref 0 in
  let serve_hedges = ref 0 and serve_trips = ref 0 in
  let deadline_hits = ref 0 and deadline_misses = ref 0 in
  let fed_routed = ref 0 and fed_leases = ref 0 and fed_releases = ref 0 in
  let fed_retunes = ref 0 and fed_promotions = ref 0 in
  let fed_rtt = ref 0.0 and fed_tune = ref 0.0 in
  (* Virtual-minute bills per stage, for the stage-share lines. *)
  let eval_minutes = ref 0.0 and offline_minutes = ref 0.0 in
  let service_minutes = ref 0.0 and reconfig_minutes = ref 0.0 in
  (* app -> (enqueued, completed, fallbacks, latencies-in-ms rev) *)
  let serve = Hashtbl.create 4 in
  let serve_get app =
    Option.value ~default:(0, 0, 0, []) (Hashtbl.find_opt serve app)
  in
  List.iter
    (fun (e : T.event) ->
      match e.T.e_kind with
      | T.Run_begin r ->
        flow := r.flow;
        cores := r.cores;
        limit := r.time_limit
      | T.Run_end r -> minutes := r.minutes
      | T.Eval_done d ->
        if d.partition < 0 then begin
          incr offline;
          offline_minutes := !offline_minutes +. d.eval_minutes
        end
        else begin
          incr evals;
          eval_minutes := !eval_minutes +. d.eval_minutes;
          if d.feasible then incr feasible;
          if d.cache_hit then incr hits;
          if d.feasible && d.quality < !best then best := d.quality;
          let tech = if d.technique = "" then "seed" else d.technique in
          let p, w, b =
            Option.value ~default:(0, 0, infinity) (Hashtbl.find_opt attr tech)
          in
          Hashtbl.replace attr tech
            ( p + 1,
              (if d.improved then w + 1 else w),
              if d.feasible then Float.min b d.quality else b )
        end
      | T.Partition_start p ->
        Hashtbl.replace starts p.partition (p.core, e.T.e_minutes)
      | T.Partition_stop p ->
        let core, start =
          Option.value
            ~default:(p.core, 0.0)
            (Hashtbl.find_opt starts p.partition)
        in
        occ :=
          { oc_partition = p.partition;
            oc_core = core;
            oc_start = start;
            oc_stop = e.T.e_minutes;
            oc_evals = p.evals;
            oc_reason = p.reason }
          :: !occ
      | T.Entropy_sample s ->
        let samples =
          Option.value ~default:[] (Hashtbl.find_opt entropy s.partition)
        in
        Hashtbl.replace entropy s.partition
          ((e.T.e_minutes, s.entropy) :: samples)
      | T.Fault_injected f ->
        let c, l =
          Option.value ~default:(0, 0.0) (Hashtbl.find_opt faults f.failure)
        in
        Hashtbl.replace faults f.failure (c + 1, l +. f.lost_minutes)
      | T.Eval_retry r ->
        incr retries;
        backoff := !backoff +. r.backoff_minutes
      | T.Quarantined _ -> incr quarantined
      | T.Core_lost _ -> incr cores_lost
      | T.Failover _ -> incr failovers
      | T.Checkpoint_written _ -> incr checkpoints
      | T.Serve_enqueue s ->
        let e, c, f, l = serve_get s.app in
        Hashtbl.replace serve s.app (e + 1, c, f, l)
      | T.Serve_batch b ->
        incr serve_batches;
        service_minutes := !service_minutes +. b.service_minutes
      | T.Serve_reconfig r ->
        incr serve_reconfigs;
        reconfig_minutes := !reconfig_minutes +. r.minutes
      | T.Serve_fallback s ->
        let e, c, f, l = serve_get s.app in
        Hashtbl.replace serve s.app (e, c, f + 1, l)
      | T.Serve_complete s ->
        let e, c, f, l = serve_get s.app in
        Hashtbl.replace serve s.app
          (e, c + 1, f, (s.latency_minutes *. 60_000.0) :: l)
      | T.Serve_shed _ -> incr serve_shed
      | T.Serve_timeout _ -> incr serve_timeouts
      | T.Serve_hedge _ -> incr serve_hedges
      | T.Serve_breaker b ->
        if b.to_state = "quarantined" then incr serve_trips
      | T.Serve_deadline d ->
        if d.met then incr deadline_hits else incr deadline_misses
      | T.Fed_route r ->
        incr fed_routed;
        fed_rtt := !fed_rtt +. r.rtt_minutes
      | T.Fed_autoscale a ->
        if a.action = "lease" then incr fed_leases else incr fed_releases
      | T.Fed_retune r ->
        incr fed_retunes;
        fed_tune := !fed_tune +. r.tune_minutes
      | T.Fed_promote _ -> incr fed_promotions
      | _ -> ())
    t.t_events;
  { rp_flow = !flow;
    rp_cores = !cores;
    rp_limit = !limit;
    rp_minutes = !minutes;
    rp_evals = !evals;
    rp_offline = !offline;
    rp_feasible = !feasible;
    rp_cache_hits = !hits;
    rp_best = !best;
    rp_curve = best_curve t;
    rp_occupancy = List.rev !occ;
    rp_attribution =
      Hashtbl.fold
        (fun tech (p, w, b) acc ->
          { at_technique = tech; at_proposals = p; at_wins = w; at_best = b }
          :: acc)
        attr []
      |> List.sort (fun a b ->
             match compare b.at_wins a.at_wins with
             | 0 -> (
               match compare b.at_proposals a.at_proposals with
               | 0 -> String.compare a.at_technique b.at_technique
               | c -> c)
             | c -> c);
    rp_entropy =
      Hashtbl.fold (fun p samples acc -> (p, List.rev samples) :: acc) entropy
        []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    rp_faults =
      Hashtbl.fold
        (fun cls (c, l) acc ->
          { fl_class = cls; fl_count = c; fl_lost = l } :: acc)
        faults []
      |> List.sort (fun a b -> String.compare a.fl_class b.fl_class);
    rp_retries = !retries;
    rp_backoff_minutes = !backoff;
    rp_quarantined = !quarantined;
    rp_cores_lost = !cores_lost;
    rp_failovers = !failovers;
    rp_checkpoints = !checkpoints;
    rp_serve_batches = !serve_batches;
    rp_serve_reconfigs = !serve_reconfigs;
    rp_serve_shed = !serve_shed;
    rp_serve_timeouts = !serve_timeouts;
    rp_serve_hedges = !serve_hedges;
    rp_serve_breaker_trips = !serve_trips;
    rp_serve_deadline_hits = !deadline_hits;
    rp_serve_deadline_misses = !deadline_misses;
    rp_serve_apps =
      Hashtbl.fold
        (fun app (e, c, f, lats) acc ->
          let xs = Array.of_list (List.rev lats) in
          let pct p = if Array.length xs = 0 then 0.0 else p xs in
          { sv_app = app;
            sv_enqueued = e;
            sv_completed = c;
            sv_fallbacks = f;
            sv_p50_ms = pct S2fa_util.Stats.p50;
            sv_p95_ms = pct S2fa_util.Stats.p95;
            sv_p99_ms = pct S2fa_util.Stats.p99 }
          :: acc)
        serve []
      |> List.sort (fun a b -> String.compare a.sv_app b.sv_app);
    rp_fed_routed = !fed_routed;
    rp_fed_leases = !fed_leases;
    rp_fed_releases = !fed_releases;
    rp_fed_retunes = !fed_retunes;
    rp_fed_promotions = !fed_promotions;
    rp_fed_rtt_minutes = !fed_rtt;
    rp_fed_tune_minutes = !fed_tune;
    rp_eval_minutes = !eval_minutes;
    rp_offline_minutes = !offline_minutes;
    rp_fault_minutes =
      Hashtbl.fold (fun _ (_, l) acc -> acc +. l) faults 0.0;
    rp_service_minutes = !service_minutes;
    rp_reconfig_minutes = !reconfig_minutes }

(* ---------- the s2fa trace report ---------- *)

let gantt_width = 60

(* One row per core: each partition paints its [start, stop] interval
   with its id (0-9a-z, '#' beyond that); '.' is idle virtual time. *)
let gantt ppf rp =
  let horizon =
    List.fold_left (fun m r -> Float.max m r.oc_stop) rp.rp_minutes
      rp.rp_occupancy
  in
  if horizon > 0.0 && rp.rp_occupancy <> [] then begin
    let cores =
      1 + List.fold_left (fun m r -> max m r.oc_core) 0 rp.rp_occupancy
    in
    let rows = Array.init cores (fun _ -> Bytes.make gantt_width '.') in
    let col m =
      min (gantt_width - 1)
        (int_of_float (m /. horizon *. float_of_int gantt_width))
    in
    let glyph p =
      if p < 10 then Char.chr (Char.code '0' + p)
      else if p < 36 then Char.chr (Char.code 'a' + p - 10)
      else '#'
    in
    List.iter
      (fun r ->
        if r.oc_core < cores then
          for i = col r.oc_start to col r.oc_stop do
            Bytes.set rows.(r.oc_core) i (glyph r.oc_partition)
          done)
      rp.rp_occupancy;
    Format.fprintf ppf
      "gantt: virtual time 0..%.0fm, cells are partition ids@." horizon;
    Array.iteri
      (fun c row ->
        Format.fprintf ppf "  core %2d |%s|@." c (Bytes.to_string row))
      rows
  end

let print_report ppf t =
  let rp = replay t in
  let p fmt = Format.fprintf ppf fmt in
  (* Virtual minutes the trace can attribute to a stage; each section
     below states its own bill against this total. *)
  let attributed =
    rp.rp_eval_minutes +. rp.rp_offline_minutes +. rp.rp_fault_minutes
    +. rp.rp_backoff_minutes +. rp.rp_service_minutes
    +. rp.rp_reconfig_minutes
  in
  let share m = if attributed > 0.0 then 100.0 *. m /. attributed else 0.0 in
  p "== trace summary ==@.";
  p "flow %s on %d cores, budget %.0f virtual minutes@." rp.rp_flow
    rp.rp_cores rp.rp_limit;
  p "events %d; evaluations %d search + %d offline (%d feasible, %d cache \
     hits)@."
    (List.length t.t_events) rp.rp_evals rp.rp_offline rp.rp_feasible
    rp.rp_cache_hits;
  if rp.rp_best < infinity then
    p "best quality %.6g s; run ended at %.1f virtual minutes@." rp.rp_best
      rp.rp_minutes
  else p "nothing feasible found; run ended at %.1fm@." rp.rp_minutes;
  if rp.rp_eval_minutes > 0.0 || rp.rp_offline_minutes > 0.0 then
    p "stage share: search evals %.1fm (%.1f%%) + offline probes %.1fm \
       (%.1f%%) of %.1fm attributed@."
      rp.rp_eval_minutes (share rp.rp_eval_minutes) rp.rp_offline_minutes
      (share rp.rp_offline_minutes) attributed;
  p "@.== best-so-far curve (replayed from eval_done events) ==@.";
  List.iter (fun (m, q) -> p "  %8.1fm  %.6g@." m q) rp.rp_curve;
  p "@.== per-partition core occupancy ==@.";
  if rp.rp_occupancy = [] then p "  (no partition events in this trace)@."
  else begin
    p "  %4s %4s %8s %8s %6s  %s@." "part" "core" "start" "stop" "evals"
      "stop reason";
    List.iter
      (fun r ->
        p "  %4d %4d %7.1fm %7.1fm %6d  %s@." r.oc_partition r.oc_core
          r.oc_start r.oc_stop r.oc_evals
          (T.stop_reason_name r.oc_reason))
      rp.rp_occupancy;
    gantt ppf rp
  end;
  p "@.== per-technique win attribution ==@.";
  p "  %-16s %10s %6s %12s@." "technique" "proposals" "wins" "best";
  List.iter
    (fun a ->
      p "  %-16s %10d %6d %12s@." a.at_technique a.at_proposals a.at_wins
        (if a.at_best < infinity then Printf.sprintf "%.6g" a.at_best
         else "-"))
    rp.rp_attribution;
  let faulted =
    rp.rp_faults <> [] || rp.rp_retries > 0 || rp.rp_quarantined > 0
    || rp.rp_cores_lost > 0 || rp.rp_failovers > 0 || rp.rp_checkpoints > 0
  in
  if faulted then begin
    p "@.== fault & resilience attribution ==@.";
    if rp.rp_faults = [] then p "  no faults injected@."
    else begin
      p "  %-12s %8s %14s@." "class" "count" "lost minutes";
      List.iter
        (fun f -> p "  %-12s %8d %13.1fm@." f.fl_class f.fl_count f.fl_lost)
        rp.rp_faults;
      let lost =
        List.fold_left (fun acc f -> acc +. f.fl_lost) 0.0 rp.rp_faults
      in
      p "  total virtual minutes lost to faults: %.1fm (+%.1fm backoff)@."
        lost rp.rp_backoff_minutes
    end;
    p "  retries %d, quarantined points %d@." rp.rp_retries rp.rp_quarantined;
    if rp.rp_cores_lost > 0 || rp.rp_failovers > 0 then
      p "  cores lost %d, partition failovers %d@." rp.rp_cores_lost
        rp.rp_failovers;
    if rp.rp_checkpoints > 0 then
      p "  checkpoints written %d@." rp.rp_checkpoints;
    p "  stage share: fault losses %.1fm + retry backoff %.1fm (%.1f%% of \
       %.1fm attributed)@."
      rp.rp_fault_minutes rp.rp_backoff_minutes
      (share (rp.rp_fault_minutes +. rp.rp_backoff_minutes))
      attributed
  end;
  if rp.rp_serve_apps <> [] || rp.rp_serve_batches > 0 then begin
    p "@.== serving ==@.";
    p "  batches %d, reconfigurations %d@." rp.rp_serve_batches
      rp.rp_serve_reconfigs;
    if
      rp.rp_serve_shed + rp.rp_serve_timeouts + rp.rp_serve_hedges
        + rp.rp_serve_breaker_trips
      > 0
    then
      p "  slo: %d shed, %d timeouts, %d hedges, %d breaker trips@."
        rp.rp_serve_shed rp.rp_serve_timeouts rp.rp_serve_hedges
        rp.rp_serve_breaker_trips;
    (let dl = rp.rp_serve_deadline_hits + rp.rp_serve_deadline_misses in
     if dl > 0 then
       p "  deadlines: %d/%d met (%.1f%%)@." rp.rp_serve_deadline_hits dl
         (100.0 *. float_of_int rp.rp_serve_deadline_hits /. float_of_int dl));
    p "  %-10s %8s %8s %8s %10s %10s %10s@." "app" "enq" "done" "jvm"
      "p50 ms" "p95 ms" "p99 ms";
    List.iter
      (fun s ->
        p "  %-10s %8d %8d %8d %10.4f %10.4f %10.4f@." s.sv_app s.sv_enqueued
          s.sv_completed s.sv_fallbacks s.sv_p50_ms s.sv_p95_ms s.sv_p99_ms)
      rp.rp_serve_apps;
    p "  stage share: accelerator service %.4fm + reconfiguration %.4fm \
       (%.1f%% of %.4fm attributed)@."
      rp.rp_service_minutes rp.rp_reconfig_minutes
      (share (rp.rp_service_minutes +. rp.rp_reconfig_minutes))
      attributed
  end;
  (* The federation section only appears when federation events exist,
     so single-pool traces render byte-identically to before. *)
  if
    rp.rp_fed_routed + rp.rp_fed_leases + rp.rp_fed_releases
      + rp.rp_fed_retunes + rp.rp_fed_promotions
    > 0
  then begin
    p "@.== federation ==@.";
    p "  routed %d (rtt charged %.4fm)@." rp.rp_fed_routed
      rp.rp_fed_rtt_minutes;
    if rp.rp_fed_leases + rp.rp_fed_releases > 0 then
      p "  autoscale: %d leases, %d releases@." rp.rp_fed_leases
        rp.rp_fed_releases;
    if rp.rp_fed_retunes + rp.rp_fed_promotions > 0 then
      p "  online dse: %d retunes (%.1fm billed), %d promotions@."
        rp.rp_fed_retunes rp.rp_fed_tune_minutes rp.rp_fed_promotions
  end;
  p "@.== entropy-stop timeline ==@.";
  if rp.rp_entropy = [] then p "  (no entropy samples in this trace)@."
  else
    List.iter
      (fun (part, samples) ->
        let stop =
          List.find_opt (fun r -> r.oc_partition = part) rp.rp_occupancy
        in
        let last =
          match List.rev samples with (_, e) :: _ -> e | [] -> 0.0
        in
        p "  part %2d: %3d samples, final entropy %.4f%s@." part
          (List.length samples) last
          (match stop with
          | Some r ->
            Printf.sprintf ", stopped @%.1fm (%s)" r.oc_stop
              (T.stop_reason_name r.oc_reason)
          | None -> ""))
      rp.rp_entropy
