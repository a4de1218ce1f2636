(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (Section 5) on the simulated F1 instance, then
   prints the exact work behind each reproduced path.

   Sections (also indexed in DESIGN.md):
     [T1]  Table 1  - identified design spaces and their sizes
     [F3]  Fig. 3   - DSE curves, S2FA vs vanilla OpenTuner + summary
     [C1]  Result DB - the same DSE with/without the shared result
                      database (duplicate evaluations absorbed)
     [T2]  Table 2  - resource utilization and clock frequency
     [F4]  Fig. 4   - speedups over the JVM, manual vs S2FA designs
     [A1..A5]       - ablations: partitioning, seeds, stopping criteria,
                      dynamic partitioning, a larger FPGA
     [BENCH]        - work of each pipeline stage
     [TRACE]        - telemetry: off / collector / JSONL / no sinks
     [FAULT]        - fault injector: off / zero-rate / faulted, and the
                      virtual-minutes bill
     [SERVE]        - multi-tenant serving throughput/latency per policy
     [CHAOS]        - SLO control plane and one chaos-campaign seed
     [FLEET_EVENT]  - one serve on a 1k-device pool
     [FEDERATION]   - 1 pool vs N geo-sharded clusters, per route policy
     [SYM]          - symbolic verifier proofs no other golden pins

   Every line is deterministic: test/test_cli.ml pins the paper sections
   in test/golden/paper_sections.txt and the rest in
   test/golden/bench_work.txt. Host time is measured by the ledger
   (bench/ledger) alone.

   With no arguments every section runs; section tags on the command line
   (e.g. `main.exe SYM SERVE`) restrict the run to those sections; an
   unknown tag prints the known sections and exits non-zero. *)

module W = S2fa_workloads.Workloads
module S2fa = S2fa_core.S2fa
module Blaze = S2fa_blaze.Blaze
module Driver = S2fa_dse.Driver
module Dspace = S2fa_dse.Dspace
module Seed = S2fa_dse.Seed
module Space = S2fa_tuner.Space
module Resultdb = S2fa_tuner.Resultdb
module E = S2fa_hls.Estimate
module Stats = S2fa_util.Stats
module Rng = S2fa_util.Rng
module Telemetry = S2fa_telemetry.Telemetry
module Fault = S2fa_fault.Fault
module Fleet = S2fa_fleet.Fleet
module Fed = S2fa_federation.Federation
module Traffic = S2fa_workloads.Traffic
module Sym = S2fa_sym.Sym
module Fuzz = S2fa_fuzz.Fuzz
module Transform = S2fa_merlin.Transform
module Csyntax = S2fa_hlsc.Csyntax
module Cinterp = S2fa_hlsc.Cinterp
module Obs = S2fa_obs.Obs

let fig3_seeds = [ 1; 7; 13 ]

let line = String.make 78 '-'

let section name title =
  Printf.printf "\n%s\n[%s] %s\n%s\n%!" line name title line

(* Compile every workload once. *)
let compiled = List.map (fun w -> (w, W.compile w)) W.all

(* ------------------------------------------------------------------ *)
(* Table 1: design-space identification *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "T1" "Table 1 - identified design space per kernel";
  Printf.printf "%-8s %6s %8s %8s %12s\n" "kernel" "loops" "buffers"
    "factors" "points";
  List.iter
    (fun ((w : W.t), c) ->
      let ds = c.S2fa.c_dspace in
      Printf.printf "%-8s %6d %8d %8d %12.3g\n" w.W.w_name
        (List.length ds.Dspace.ds_loop_ids)
        (List.length ds.Dspace.ds_buffers)
        (List.length (Space.params ds.Dspace.ds_space))
        (Space.cardinality ds.Dspace.ds_space))
    compiled;
  let _, sw_c =
    List.find (fun ((w : W.t), _) -> w.W.w_name = "S-W") compiled
  in
  Printf.printf
    "\nfactors per Table 1: buffer bit-width 2^n in (8,512], loop tiling and \
     parallel in (1, TC(L)), pipeline in {on, off, flatten}\n";
  Printf.printf
    "paper: \"the design space of the S-W example contains more than a \
     thousand trillion design points\" -> measured %.3g (>1e15: %b)\n"
    (Space.cardinality sw_c.S2fa.c_dspace.Dspace.ds_space)
    (Space.cardinality sw_c.S2fa.c_dspace.Dspace.ds_space > 1e15)

(* ------------------------------------------------------------------ *)
(* Fig. 3 *)
(* ------------------------------------------------------------------ *)

type fig3_row = {
  f3_s2fa_min : float;
  f3_ratio : float;
  f3_first_norm : float;
}

let first_feasible r =
  List.fold_left
    (fun acc (e : Driver.event) ->
      if e.Driver.ev_feasible && acc = infinity then e.Driver.ev_perf else acc)
    infinity r.Driver.rr_events

(* Best feasible result among the first [n] evaluations — the seed round
   of each flow (one per core for S2FA, the first batch for OpenTuner). *)
let best_of_first n r =
  let rec go k best = function
    | [] -> best
    | _ when k = 0 -> best
    | (e : Driver.event) :: rest ->
      let best = if e.Driver.ev_feasible then Float.min best e.Driver.ev_perf else best in
      go (k - 1) best rest
  in
  go n infinity r.Driver.rr_events

let fig3_one (w : W.t) c seed =
  let s2fa = S2fa.explore ~tasks:w.W.w_tasks c (Rng.create seed) in
  let vanilla = S2fa.explore_vanilla ~tasks:w.W.w_tasks c (Rng.create seed) in
  let t = s2fa.Driver.rr_minutes in
  ( s2fa,
    vanilla,
    { f3_s2fa_min = t;
      f3_ratio = Driver.best_at vanilla t /. Driver.best_at s2fa t;
      f3_first_norm = best_of_first 32 s2fa /. best_of_first 8 vanilla } )

let fig3 () =
  section "F3" "Fig. 3 - DSE process of S2FA (solid) vs OpenTuner (dashed)";
  let rows = ref [] in
  List.iter
    (fun ((w : W.t), c) ->
      let s2fa, vanilla, row0 = fig3_one w c (List.hd fig3_seeds) in
      let norm = first_feasible vanilla in
      Printf.printf "\n%s (normalized to the OpenTuner random seed)\n"
        w.W.w_name;
      let show label r =
        Printf.printf "  %-10s" label;
        List.iter
          (fun (m, p) -> Printf.printf " (%.0fm, %.3f)" m (p /. norm))
          (Driver.best_curve r);
        Printf.printf "  [ends %.0fm]\n" r.Driver.rr_minutes
      in
      show "S2FA:" s2fa;
      show "OpenTuner:" vanilla;
      rows := row0 :: !rows;
      List.iter
        (fun seed ->
          let _, _, row = fig3_one w c seed in
          rows := row :: !rows)
        (List.tl fig3_seeds))
    compiled;
  let rows = !rows in
  let avg f = Stats.mean (Array.of_list (List.map f rows)) in
  let geo_ratio =
    Stats.geometric_mean
      (Array.of_list (List.map (fun r -> Float.max 1e-3 r.f3_ratio) rows))
  in
  Printf.printf "\nsummary over %d runs (%d kernels x %d seeds):\n"
    (List.length rows) (List.length compiled) (List.length fig3_seeds);
  Printf.printf
    "  S2FA terminates at %.0f min on average (paper: ~1.9 h = 114 min); \
     OpenTuner always runs the full 240 min\n"
    (avg (fun r -> r.f3_s2fa_min));
  Printf.printf
    "  average DSE time saving vs the 4 h budget: %.1f%% (paper: 52.5%%)\n"
    (100.0 *. (1.0 -. (avg (fun r -> r.f3_s2fa_min) /. 240.0)));
  Printf.printf
    "  QoR at S2FA's termination, OpenTuner/S2FA: geometric mean %.2fx \
     (>1 means S2FA ahead; the paper reports 35x on its testbed)\n"
    geo_ratio;
  let seed_rows =
    List.filter (fun r -> Float.is_finite r.f3_first_norm) rows
  in
  Printf.printf
    "  seed effect: after the seed round S2FA sits at %.3fx the latency of \
     OpenTuner's first batch (<1 = better start, Section 4.3.2; %d/%d runs \
     comparable)\n"
    (Stats.geometric_mean
       (Array.of_list (List.map (fun r -> r.f3_first_norm) seed_rows)))
    (List.length seed_rows) (List.length rows)

(* ------------------------------------------------------------------ *)
(* C1: the shared result database, before/after *)
(* ------------------------------------------------------------------ *)

let cache_before_after () =
  section "C1"
    "Result DB - identical DSE with vs without the shared result database";
  Printf.printf
    "same kernel, same seed; hits are duplicate design points served from \
     the DB at zero virtual minutes instead of re-running the estimator:\n\n";
  Printf.printf "%-8s | %-22s | %-42s | %s\n" "kernel" "no-db (evals, min)"
    "shared-db (evals, min, hits, min saved)" "best =";
  List.iter
    (fun name ->
      let w = Option.get (W.find name) in
      let c = List.assoc w compiled in
      let plain = S2fa.explore ~tasks:w.W.w_tasks c (Rng.create 7) in
      let db = Resultdb.create () in
      let shared = S2fa.explore ~tasks:w.W.w_tasks ~db c (Rng.create 7) in
      let best r =
        match r.Driver.rr_best with Some (_, p) -> p | None -> infinity
      in
      let s =
        match shared.Driver.rr_cache with
        | Some s -> s
        | None -> Resultdb.snapshot db
      in
      Printf.printf
        "%-8s | %6d evals %7.1fm | %6d evals %7.1fm %5d hits %8.1fm | %b\n"
        name plain.Driver.rr_evals plain.Driver.rr_minutes
        shared.Driver.rr_evals shared.Driver.rr_minutes
        s.Resultdb.sn_hits s.Resultdb.sn_minutes_saved
        (best plain = best shared))
    [ "KMeans"; "LR"; "S-W" ];
  Printf.printf
    "\n(the clock with the DB is never later than without it; measured \
     qualities are bit-identical — see test/test_resultdb.ml)\n"

(* ------------------------------------------------------------------ *)
(* Table 2 / Fig. 4 *)
(* ------------------------------------------------------------------ *)

let paper_table2 =
  [ ("PR", 25, 2, 16, 18, 250);
    ("KMeans", 73, 6, 10, 14, 230);
    ("KNN", 75, 6, 50, 50, 240);
    ("LR", 74, 3, 49, 74, 220);
    ("SVM", 74, 4, 48, 72, 250);
    ("LLS", 74, 3, 45, 21, 230);
    ("AES", 36, 0, 3, 6, 250);
    ("S-W", 33, 30, 54, 75, 100) ]

let best_designs =
  lazy
    (List.map
       (fun ((w : W.t), c) ->
         let dse = S2fa.explore ~tasks:w.W.w_tasks c (Rng.create 7) in
         let cfg =
           match dse.Driver.rr_best with
           | Some (cfg, _) -> cfg
           | None -> Seed.area_seed c.S2fa.c_dspace
         in
         (w, c, cfg))
       compiled)

let table2 () =
  section "T2" "Table 2 - resource utilization and clock frequency";
  Printf.printf "%-8s | measured: %-26s | paper: %s\n" "kernel"
    "BRAM DSP  FF   LUT   MHz" "BRAM DSP  FF   LUT   MHz";
  List.iter
    (fun ((w : W.t), c, cfg) ->
      let r = S2fa.estimate ~tasks:w.W.w_tasks c cfg in
      let pb, pd, pf, pl, pm =
        match List.assoc_opt w.W.w_name (List.map (fun (n, b, d, f, l, m) -> (n, (b, d, f, l, m))) paper_table2) with
        | Some v -> v
        | None -> (0, 0, 0, 0, 0)
      in
      Printf.printf
        "%-8s | %3.0f%% %3.0f%% %3.0f%% %3.0f%% %5.0f  | %3d%% %3d%% %3d%% \
         %3d%% %5d\n"
        w.W.w_name
        (100.0 *. r.E.r_bram_pct)
        (100.0 *. r.E.r_dsp_pct)
        (100.0 *. r.E.r_ff_pct)
        (100.0 *. r.E.r_lut_pct)
        r.E.r_freq_mhz pb pd pf pl pm)
    (Lazy.force best_designs);
  Printf.printf
    "\nshape checks: the memory-bound kernels (AES, PR) leave most resources \
     idle; compute-bound kernels push at least one resource toward the 75%% \
     cap; congested designs miss the 250 MHz target.\n"

let manual_seconds (w : W.t) c cfg =
  let r = S2fa.estimate ~tasks:w.W.w_tasks c cfg in
  match w.W.w_manual_ii with
  | Some ii when r.E.r_ii > ii ->
    (* The expert restructures the critical statement into pipeline
       stages beyond the reach of the Merlin pragma set (the paper's LR
       discussion), reaching a lower initiation interval. *)
    let comp = r.E.r_compute_seconds *. (ii /. r.E.r_ii) in
    Float.max comp r.E.r_xfer_seconds
    +. (0.15 *. Float.min comp r.E.r_xfer_seconds)
    +. 5e-5
  | _ -> r.E.r_seconds

let fig4 () =
  section "F4" "Fig. 4 - speedup over a single-threaded Spark executor";
  Printf.printf "%-8s %12s %12s %12s %12s\n" "kernel" "jvm(s)" "manual(x)"
    "s2fa(x)" "s2fa/manual";
  let ratios = ref [] and ml = ref [] and strings = ref [] in
  List.iter
    (fun ((w : W.t), c, cfg) ->
      let rng = Rng.create 42 in
      let fields = w.W.w_fields rng in
      let sample_n = min 128 w.W.w_tasks in
      let sample = w.W.w_gen rng sample_n in
      let jvm = Blaze.map_jvm c.S2fa.c_class ~fields sample in
      let jvm_total =
        jvm.Blaze.tr_seconds /. float_of_int sample_n
        *. float_of_int w.W.w_tasks
      in
      let s2fa_s = (S2fa.estimate ~tasks:w.W.w_tasks c cfg).E.r_seconds in
      (* The expert sweeps the structured corner of the space and may
         also start from the tool's own output, then applies manual
         restructurings (w_manual_ii) the pragma set cannot express. *)
      let man_s =
        Float.min
          (manual_seconds w c (W.manual_design w c))
          (manual_seconds w c cfg)
      in
      let man_x = jvm_total /. man_s and s2fa_x = jvm_total /. s2fa_s in
      Printf.printf "%-8s %12.4f %12.1f %12.1f %11.0f%%\n" w.W.w_name
        jvm_total man_x s2fa_x
        (100.0 *. s2fa_x /. man_x);
      ratios := (s2fa_x /. man_x) :: !ratios;
      (match w.W.w_kind with
      | "string proc." -> strings := s2fa_x :: !strings
      | "classification" | "regression" -> ml := s2fa_x :: !ml
      | _ -> ()))
    (Lazy.force best_designs);
  Printf.printf
    "\nS2FA reaches %.0f%% of the manual designs on average (paper: ~85%%)\n"
    (100.0 *. Stats.mean (Array.of_list !ratios));
  let _, ml_max = Stats.min_max (Array.of_list !ml) in
  let _, str_max = Stats.min_max (Array.of_list !strings) in
  Printf.printf
    "max S2FA speedup, machine learning: %.1fx (paper: up to 49.9x)\n" ml_max;
  Printf.printf
    "max S2FA speedup, string processing: %.1fx (paper: up to ~1225x)\n"
    str_max;
  Printf.printf
    "known gaps the paper also reports: LR (manual re-stages the regression \
     update to beat II=13) and PR (too little compute to hide communication \
     on either target).\n"

(* ------------------------------------------------------------------ *)
(* Ablations *)
(* ------------------------------------------------------------------ *)

let best_of r =
  match r.Driver.rr_best with Some (_, p) -> p | None -> infinity

let ablation_partition () =
  section "A1" "Ablation - design-space partitioning (Section 4.3.1)";
  Printf.printf "%-8s %16s %16s\n" "kernel" "with partition" "without";
  List.iter
    (fun name ->
      let w = Option.get (W.find name) in
      let c = List.assoc w compiled in
      let on = S2fa.explore ~tasks:w.W.w_tasks c (Rng.create 7) in
      let off =
        S2fa.explore
          ~opts:{ Driver.default_s2fa_opts with Driver.so_partition = false }
          ~tasks:w.W.w_tasks c (Rng.create 7)
      in
      Printf.printf "%-8s %14.5fs %14.5fs\n" name (best_of on) (best_of off))
    [ "KMeans"; "S-W" ];
  Printf.printf
    "(paper: partitioning speeds convergence; the benefit is marginal for \
     KMeans because its space is small)\n"

let ablation_seeds () =
  section "A2" "Ablation - seed generation (Section 4.3.2)";
  Printf.printf "%-8s %14s %14s %14s\n" "kernel" "all seeds" "area only"
    "no seeds";
  List.iter
    (fun name ->
      let w = Option.get (W.find name) in
      let c = List.assoc w compiled in
      let run mode =
        best_of
          (S2fa.explore
             ~opts:{ Driver.default_s2fa_opts with Driver.so_seed_mode = mode }
             ~tasks:w.W.w_tasks c (Rng.create 7))
      in
      Printf.printf "%-8s %13.5fs %13.5fs %13.5fs\n" name (run `Both)
        (run `Area_only) (run `None))
    [ "KMeans"; "LR"; "S-W" ]

let ablation_stopping () =
  section "A3" "Ablation - stopping criteria (Section 4.3.3)";
  Printf.printf "%-8s | %-24s | %-24s | %-22s\n" "kernel" "entropy (Eq. 2)"
    "trivial (10 stale)" "time limit only";
  let totals = Array.make 3 0.0 and quals = Array.make 3 0.0 in
  let kernels = [ "KMeans"; "LR"; "AES"; "S-W" ] in
  List.iter
    (fun name ->
      let w = Option.get (W.find name) in
      let c = List.assoc w compiled in
      let run stop =
        let r =
          S2fa.explore
            ~opts:{ Driver.default_s2fa_opts with Driver.so_stop = stop }
            ~tasks:w.W.w_tasks c (Rng.create 7)
        in
        (r.Driver.rr_minutes, best_of r)
      in
      let te, be = run `Entropy in
      let tt, bt = run (`Trivial 10) in
      let tl, bl = run `Time_only in
      totals.(0) <- totals.(0) +. te;
      totals.(1) <- totals.(1) +. tt;
      totals.(2) <- totals.(2) +. tl;
      quals.(0) <- quals.(0) +. be;
      quals.(1) <- quals.(1) +. bt;
      quals.(2) <- quals.(2) +. bl;
      Printf.printf
        "%-8s | %6.0f min  %10.5fs | %6.0f min  %10.5fs | %6.0f min  %8.5fs\n"
        name te be tt bt tl bl)
    kernels;
  let n = float_of_int (List.length kernels) in
  Printf.printf
    "\naverage: entropy stops at %.1f h, the trivial criterion at %.1f h \
     (paper: the trivial criterion terminates ~1 h later for only ~4%% \
     better quality)\n"
    (totals.(0) /. n /. 60.0)
    (totals.(1) /. n /. 60.0)

let ablation_dynamic_partition () =
  section "A5" "Ablation - static vs DATuner-style dynamic partitioning";
  Printf.printf
    "the paper argues its static \"some-for-all\" partitions avoid \
     DATuner's per-partition sampling set-up time (Section 4.3.1):\n";
  Printf.printf "%-8s | %-26s | %-26s\n" "kernel" "static (S2FA)"
    "dynamic (DATuner-style)";
  List.iter
    (fun name ->
      let w = Option.get (W.find name) in
      let c = List.assoc w compiled in
      let s = S2fa.explore ~tasks:w.W.w_tasks c (Rng.create 7) in
      let d =
        S2fa_dse.Driver.run_dynamic c.S2fa.c_dspace
          (S2fa.objective ~tasks:w.W.w_tasks c)
          (Rng.create 7)
      in
      (* Quality each flow reached after one simulated hour. *)
      let at60 r = Driver.best_at r 60.0 in
      Printf.printf
        "%-8s | best %9.5fs @60m %7.4f | best %9.5fs @60m %7.4f\n" name
        (best_of s) (at60 s) (best_of d) (at60 d))
    [ "KMeans"; "LR"; "S-W" ]

let ablation_larger_fpga () =
  section "A4" "Ablation - a larger FPGA (Section 5.2's hypothesis)";
  Printf.printf
    "re-estimating each kernel's best design with every parallel factor \
     doubled, on the VU9P vs a ~1.6x larger part:\n";
  Printf.printf "%-8s %18s %18s\n" "kernel" "VU9P" "VU13P";
  List.iter
    (fun ((w : W.t), c, cfg) ->
      (* Double the parallel factors of the chosen design: feasible only
         where fabric remains. *)
      let pushed =
        Space.of_list
          (List.map
             (fun (k, v) ->
               match v with
               | Space.VInt f
                 when String.length k > 4 && String.sub k 0 4 = "par_" ->
                 (k, Space.VInt (2 * f))
               | _ -> (k, v))
             (Space.to_list cfg))
      in
      let prog = S2fa.apply_design c pushed in
      let show device =
        let r =
          E.estimate ~device prog ~tasks:w.W.w_tasks
            ~buffer_elems:c.S2fa.c_buffer_elems
        in
        if r.E.r_feasible then Printf.sprintf "%11.5fs ok" r.E.r_seconds
        else Printf.sprintf "%14s" "infeasible"
      in
      Printf.printf "%-8s %18s %18s\n" w.W.w_name
        (show S2fa_hls.Device.vu9p)
        (show S2fa_hls.Device.vu13p))
    (Lazy.force best_designs);
  Printf.printf
    "(designs that blow past the VU9P cap can close on the larger part, \
     confirming the paper's remark about compute-bound kernels)\n"

(* ------------------------------------------------------------------ *)
(* Work counts: each row runs once under a fresh profiler and prints,
   one line each in name order, the calls of every span it opened and
   the total of every Obs counter. The counts are exact and
   deterministic; host time is measured by the ledger (bench/ledger)
   alone. *)
(* ------------------------------------------------------------------ *)

let work row f =
  let p = Obs.Profiler.create () in
  let r = Obs.with_profiler p (fun () -> Obs.span row f) in
  let tally = Hashtbl.create 16 in
  let add key n =
    let cur = Option.value ~default:0 (Hashtbl.find_opt tally key) in
    Hashtbl.replace tally key (cur + n)
  in
  List.iter
    (fun (s : Obs.Profiler.span) ->
      (* The row's own root span is always one call. *)
      if s.Obs.Profiler.sp_parent >= 0 then
        add ("span", s.Obs.Profiler.sp_name) 1;
      List.iter (fun (k, n) -> add ("count", k) n) s.Obs.Profiler.sp_counters)
    (Obs.Profiler.spans p);
  let lines =
    List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) tally [])
  in
  if lines = [] then Printf.printf "  %-27s no span, no counter\n" row;
  List.iter
    (fun ((kind, name), n) ->
      Printf.printf "  %-27s %-5s %-31s %9d\n" row kind name n)
    lines;
  r

let stage_work () =
  section "BENCH" "Work counts - each reproduced artifact's stage (KMeans)";
  let w = Option.get (W.find "KMeans") in
  let c = List.assoc w compiled in
  let cfg = Seed.structured_seed c.S2fa.c_dspace in
  let prog = S2fa.apply_design c cfg in
  let objective () = ignore (S2fa.objective ~tasks:4096 c cfg) in
  work "fig3.dse-objective" objective;
  work "table2.hls-estimate" (fun () ->
      ignore (E.estimate prog ~tasks:4096 ~buffer_elems:c.S2fa.c_buffer_elems));
  work "fig4.compile-kernel" (fun () -> ignore (W.compile w));
  (* Before/after of the result DB: a hit replaces one full objective
     evaluation (the miss) with a table lookup. *)
  work "cache.objective-miss" objective;
  let db = Resultdb.create () in
  Resultdb.insert db cfg (S2fa.objective ~tasks:4096 c cfg);
  work "cache.objective-hit" (fun () ->
      ignore (Resultdb.memoize db (S2fa.objective ~tasks:4096 c) cfg))

(* The small KMeans DSE the TRACE and FAULT sections observe. *)
let small_dse ?trace ?faults () =
  let w = Option.get (W.find "KMeans") in
  S2fa.explore
    ~opts:
      { Driver.default_s2fa_opts with
        Driver.so_time_limit = 20.0;
        so_samples = 16 }
    ~tasks:w.W.w_tasks ?trace ?faults (List.assoc w compiled) (Rng.create 7)

let telemetry_work () =
  section "TRACE" "Work counts - telemetry on a small KMeans DSE";
  Printf.printf
    "same seed, same trajectory: every row must equal the untraced one, \
     so observing a run adds no work:\n";
  let traced sinks () =
    ignore (small_dse ~trace:(Telemetry.create ~sinks ()) ())
  in
  work "telemetry.disabled" (fun () -> ignore (small_dse ()));
  work "telemetry.collector" (fun () ->
      traced [ fst (Telemetry.collector ()) ] ());
  work "telemetry.jsonl"
    (traced [ Telemetry.buffer_sink (Buffer.create 65536) ]);
  work "telemetry.no-sinks" (traced [])

let fault_work () =
  section "FAULT" "Work counts - fault injector on a small KMeans DSE";
  Printf.printf
    "no injector vs a zero-rate one (the rows must be equal) vs \
     crash=0.05,hang=0.02; faults cost virtual minutes and retries:\n";
  let spec =
    match Fault.parse_spec "crash=0.05,hang=0.02" with
    | Ok s -> s
    | Error m -> failwith m
  in
  let clean = work "faults.off" (fun () -> small_dse ()) in
  work "faults.zero-rate" (fun () ->
      ignore (small_dse ~faults:(Fault.create ~seed:7 Fault.zero_spec) ()));
  let inj = Fault.create ~seed:7 spec in
  let faulted =
    work "faults.crash5-hang2" (fun () -> small_dse ~faults:inj ())
  in
  let st = Fault.stats inj in
  Printf.printf "\nvirtual-minutes bill (seed 7, 20-minute budget):\n";
  Printf.printf "  %-12s %10s %14s\n" "class" "injected" "minutes lost";
  List.iter2
    (fun (cls, n) (_, lost) ->
      Printf.printf "  %-12s %10d %14.1f\n" cls n lost)
    st.Fault.st_injected st.Fault.st_lost;
  Printf.printf "  retries %d (+%.1f min backoff), quarantined %d\n"
    st.Fault.st_retries st.Fault.st_backoff st.Fault.st_quarantined;
  Printf.printf
    "  DSE clock: %.1f min clean vs %.1f min faulted; best %.6f vs %.6f s\n"
    clean.Driver.rr_minutes faulted.Driver.rr_minutes (best_of clean)
    (best_of faulted)

(* The EXPERIMENTS.md serving scenario: queues big enough that nothing
   overflows, so the policy table isolates the scheduling policies. *)
let two_tenants () =
  let tenants =
    [ Traffic.tenant ~rate:400.0 ~weight:1.0 ~batch:64 ~queue_cap:512
        (Option.get (W.find "KMeans"));
      Traffic.tenant ~rate:300.0 ~weight:2.0 ~batch:64 ~queue_cap:512
        (Option.get (W.find "LR")) ]
  in
  (Traffic.apps ~seed:7 tenants, Traffic.requests ~seed:7 ~horizon:1.0 tenants)

let latencies_ms (outcome : Fleet.outcome) =
  Array.of_list
    (List.map
       (fun (res : Fleet.result) -> res.Fleet.rs_latency *. 1000.0)
       outcome.Fleet.oc_results)

let cluster_throughput () =
  section "SERVE"
    "Cluster - multi-tenant serving throughput/latency per policy";
  let apps, requests = two_tenants () in
  let outcomes =
    List.map
      (fun policy ->
        let opts = { Fleet.default_opts with Fleet.o_policy = policy } in
        work
          (Printf.sprintf "serve.%s" (Fleet.policy_name policy))
          (fun () -> Fleet.serve ~opts apps requests))
      Fleet.all_policies
  in
  Printf.printf
    "\n2 tenants (KMeans 400 req/s w=1, LR 300 req/s w=2), 1 s horizon, \
     %d requests, 2 devices:\n"
    (List.length requests);
  Printf.printf "  %-10s %10s %10s %10s %10s %8s %8s %9s\n" "policy"
    "req/s" "p50 ms" "p95 ms" "p99 ms" "reconf" "jvm" "fairness";
  List.iter
    (fun outcome ->
      let r = outcome.Fleet.oc_report and all = latencies_ms outcome in
      Printf.printf "  %-10s %10.1f %10.4f %10.4f %10.4f %8d %8d %9.4f\n"
        r.Fleet.rp_policy r.Fleet.rp_throughput (Stats.p50 all) (Stats.p95 all)
        (Stats.p99 all) r.Fleet.rp_reconfigs r.Fleet.rp_fallbacks
        r.Fleet.rp_fairness)
    outcomes

let chaos_work () =
  section "CHAOS" "Work counts - SLO control plane and chaos harness";
  let apps, requests = two_tenants () in
  let slo_opts =
    { Fleet.default_opts with
      Fleet.o_slo =
        { Fleet.sl_hang_factor = 3.0;
          sl_hedge = true;
          sl_breaker = Some Fleet.default_breaker } }
  in
  let armed = Fleet.with_deadline 30.0 requests in
  let base = work "serve.baseline" (fun () -> Fleet.serve apps requests) in
  let guarded =
    work "serve.slo-armed" (fun () -> Fleet.serve ~opts:slo_opts apps armed)
  in
  work "chaos.one-seed" (fun () -> ignore (S2fa_workloads.Chaos.run_seed 0));
  let rp o = o.Fleet.oc_report in
  Printf.printf
    "\nsame scenario, fault-free: baseline %d accelerated vs armed %d (shed \
     %d, deadlines %d/%d met)\n"
    (rp base).Fleet.rp_accelerated (rp guarded).Fleet.rp_accelerated
    (rp guarded).Fleet.rp_shed (rp guarded).Fleet.rp_deadline_hits
    ((rp guarded).Fleet.rp_deadline_hits
    + (rp guarded).Fleet.rp_deadline_misses)

let fleet_event () =
  section "FLEET_EVENT" "Work counts - event-heap core, 1k devices";
  let devices = 1000 in
  let tenants =
    [ Traffic.tenant ~rate:7000.0 ~weight:1.0 ~batch:8 ~queue_cap:100_000
        (Option.get (W.find "PR")) ]
  in
  let apps = Traffic.apps ~seed:7 tenants in
  let requests = Traffic.requests ~seed:7 ~horizon:1.0 tenants in
  Printf.printf
    "1 tenant (PR 7000 req/s), 1 s horizon, %d requests, %d devices:\n"
    (List.length requests) devices;
  let opts = { Fleet.default_opts with Fleet.o_devices = devices } in
  ignore (work "serve.heap-1k" (fun () -> Fleet.serve ~opts apps requests))

(* The same two-tenant stream served by one 4-device pool vs a
   2x2-cluster federation (2 ms inter-region RTT) under each route
   policy. The federation pays the routing tier and the RTT on every
   cross-region request; the table shows what that costs (and what
   locality routing claws back). *)
let federation () =
  section "FEDERATION" "Federation - 1 pool vs 2x2 geo-sharded clusters";
  let tenants =
    [ Traffic.tenant ~rate:300.0 ~weight:1.0 (Option.get (W.find "KMeans"));
      Traffic.tenant ~rate:200.0 ~weight:3.0 (Option.get (W.find "PR")) ]
  in
  let seed = 11 in
  let apps = Traffic.apps ~seed tenants in
  let regions = [ Traffic.region "east"; Traffic.region ~scale:2.0 "west" ] in
  let requests = Traffic.regional_requests ~seed ~horizon:1.0 regions tenants in
  let clusters =
    [ Fed.cluster ~devices:2 ~rtt_s:[| 0.0; 0.002 |] "east";
      Fed.cluster ~devices:2 ~rtt_s:[| 0.002; 0.0 |] "west" ]
  in
  (* Baseline: every request lands on one 4-device pool, no RTT. *)
  let pool =
    work "serve.1pool-4dev" (fun () ->
        Fleet.serve
          ~opts:{ Fleet.default_opts with Fleet.o_devices = 4 }
          apps (List.map snd requests))
  in
  let fed_tenants = Array.to_list (Array.map Fed.tenant apps) in
  let feds =
    List.map
      (fun route ->
        let opts = { Fed.default_opts with Fed.fd_route = route } in
        ( route,
          work
            (Printf.sprintf "federate.%s-2x2" (Fed.route_name route))
            (fun () -> Fed.serve ~opts ~clusters fed_tenants requests) ))
      Fed.all_routes
  in
  Printf.printf
    "\n2 tenants (KMeans 300 req/s w=1, PR 200 req/s w=3), 2 regions \
     (west x2), 1 s horizon, %d requests:\n"
    (List.length requests);
  Printf.printf "  %-18s %10s %10s %10s %10s %10s\n" "config" "req/s"
    "p50 ms" "p95 ms" "p99 ms" "makespan";
  let pr = pool.Fleet.oc_report and pool_lats = latencies_ms pool in
  Printf.printf "  %-18s %10.1f %10.4f %10.4f %10.4f %9.3fs\n" "1-pool-4dev"
    pr.Fleet.rp_throughput (Stats.p50 pool_lats) (Stats.p95 pool_lats)
    (Stats.p99 pool_lats) pr.Fleet.rp_makespan;
  List.iter
    (fun (route, oc) ->
      let r = oc.Fed.fo_report in
      Printf.printf "  %-18s %10.1f %10.4f %10.4f %10.4f %9.3fs\n"
        ("fed." ^ Fed.route_name route)
        (float_of_int r.Fed.fr_requests /. r.Fed.fr_makespan)
        r.Fed.fr_p50_ms r.Fed.fr_p95_ms r.Fed.fr_p99_ms r.Fed.fr_makespan)
    feds

(* The proofs test/golden/sym_runs.txt does not pin: each kernel's
   identity proof at the CLI's `verify --symbolic` settings, and a
   synthetic integer sum, the one program tree-reduction is legal on
   (every workload accumulates floats, so reduce4 is refused on all). *)
let sym_work () =
  section "SYM" "Work counts - symbolic verifier proofs";
  let prove ?bindings ~caps p1 p2 () =
    match Sym.equiv ?bindings ~seed:7 ~caps p1 p2 "kernel" with
    | Sym.Proved _ -> ()
    | Sym.Refuted cx -> failwith ("refuted: " ^ cx.Sym.cx_detail)
    | Sym.Unknown m -> failwith ("unknown: " ^ m)
  in
  let tasks = 2 in
  List.iter
    (fun ((w : W.t), c) ->
      let flat = c.S2fa.c_flat in
      work
        (Printf.sprintf "sym.%s.identity" w.W.w_name)
        (prove
           ~bindings:[ ("N", Cinterp.VI tasks) ]
           ~caps:(Fuzz.scale_caps ~tasks c.S2fa.c_buffer_elems)
           flat flat))
    compiled;
  let open Csyntax in
  let loop =
    mk_loop ~var:"i" ~lo:(EInt 0) ~hi:(EInt 64)
      [ SAssign (EVar "s", EBin (CAdd, EVar "s", EIndex (EVar "a", EVar "i")))
      ]
  in
  let prog =
    { cfuncs =
        [ { cfname = "kernel";
            cfparams =
              [ { cpname = "a"; cpty = CPtr CInt; cpbitwidth = None };
                { cpname = "o"; cpty = CPtr CInt; cpbitwidth = None } ];
            cfret = None;
            cfbody =
              [ SDecl (CInt, "s", Some (EInt 0));
                SFor loop;
                SAssign (EIndex (EVar "o", EInt 0), EVar "s") ] } ] }
  in
  let caps = [ ("a", 64); ("o", 1) ] in
  work "sym.intsum64.identity" (prove ~caps prog prog);
  work "sym.intsum64.reduce4"
    (prove ~caps prog (Transform.tree_reduce ~lanes:4 ~loop_id:loop.lid prog))

(* ------------------------------------------------------------------ *)

let sections =
  [ ("T1", table1);
    ("F3", fig3);
    ("C1", cache_before_after);
    ("T2", table2);
    ("F4", fig4);
    ("A1", ablation_partition);
    ("A2", ablation_seeds);
    ("A3", ablation_stopping);
    ("A5", ablation_dynamic_partition);
    ("A4", ablation_larger_fpga);
    ("BENCH", stage_work);
    ("TRACE", telemetry_work);
    ("FAULT", fault_work);
    ("SERVE", cluster_throughput);
    ("CHAOS", chaos_work);
    ("FLEET_EVENT", fleet_event);
    ("FEDERATION", federation);
    ("SYM", sym_work) ]

let () =
  let want = List.tl (Array.to_list Sys.argv) in
  List.iter
    (fun tag ->
      if not (List.mem_assoc tag sections) then (
        Printf.eprintf "unknown section %s (have: %s)\n" tag
          (String.concat " " (List.map fst sections));
        exit 2))
    want;
  Printf.printf
    "S2FA reproduction - experiment harness (simulated Amazon F1, VU9P)\n%!";
  List.iter
    (fun (tag, f) -> if want = [] || List.mem tag want then f ())
    sections;
  Printf.printf "\ndone.\n"
