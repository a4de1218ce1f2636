(* The span profiler's contracts:

     - spans nest, close on exceptions, and attribute counters to the
       innermost open span;
     - the serialized span log is byte-reproducible: identical across
       repeated runs of the same seeded pipeline and across profiler
       pool sizes;
     - profiling has zero observer effect — the instrumented DSE
       produces bit-identical results with and without a profiler;
     - the folded-stack encoding falls back to span counts when the
       whole profile has zero virtual duration;
     - the perf trajectory round-trips through BENCH_<section>.json and
       `Perf.diff` flags an injected 2x regression while passing an
       identical trajectory;
     - the Prometheus exposition of a metrics snapshot is deterministic
       and well-formed. *)

module Obs = S2fa_obs.Obs
module Perf = S2fa_obs.Perf
module Telemetry = S2fa_telemetry.Telemetry
module W = S2fa_workloads.Workloads
module S2fa = S2fa_core.S2fa
module Driver = S2fa_dse.Driver
module Space = S2fa_tuner.Space
module Rng = S2fa_util.Rng

exception Boom

(* ------------------------- profiler core -------------------------- *)

let test_nesting_and_counters () =
  let p = Obs.Profiler.create () in
  Obs.with_profiler p (fun () ->
      Obs.count "dropped.outside";
      Obs.span "outer" (fun () ->
          Obs.count "outer.k";
          Obs.span "inner" (fun () ->
              Obs.count ~by:3 "inner.k";
              Obs.count "inner.k")));
  Alcotest.(check int) "stack empty" 0 (Obs.Profiler.depth p);
  match Obs.Profiler.spans p with
  | [ inner; outer ] ->
    (* Completion order: children before parents. *)
    Alcotest.(check string) "inner name" "inner" inner.Obs.Profiler.sp_name;
    Alcotest.(check string) "outer name" "outer" outer.Obs.Profiler.sp_name;
    Alcotest.(check string) "inner path" "outer;inner"
      inner.Obs.Profiler.sp_path;
    Alcotest.(check int) "inner parent" outer.Obs.Profiler.sp_id
      inner.Obs.Profiler.sp_parent;
    Alcotest.(check (list (pair string int)))
      "inner counters" [ ("inner.k", 4) ] inner.Obs.Profiler.sp_counters;
    Alcotest.(check (list (pair string int)))
      "outer counters (outside-span count dropped)" [ ("outer.k", 1) ]
      outer.Obs.Profiler.sp_counters
  | spans ->
    Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_exception_safety () =
  let p = Obs.Profiler.create () in
  (try
     Obs.with_profiler p (fun () ->
         Obs.span "outer" (fun () -> Obs.span "inner" (fun () -> raise Boom)))
   with Boom -> ());
  Alcotest.(check int) "stack unwound" 0 (Obs.Profiler.depth p);
  Alcotest.(check int) "both spans closed" 2
    (List.length (Obs.Profiler.spans p));
  Alcotest.(check bool) "ambient profiler restored" true
    (Obs.profiler () = None)

let test_disabled_is_passthrough () =
  Alcotest.(check bool) "disabled" false (Obs.enabled ());
  let r = Obs.span "nope" (fun () -> 41 + 1) in
  Alcotest.(check int) "value passes through" 42 r;
  Obs.count "nowhere";
  Obs.set_clock 99.0;
  Alcotest.(check (float 0.0)) "clock reads 0 when disabled" 0.0 (Obs.clock ())

let test_virtual_clock_attribution () =
  let p = Obs.Profiler.create () in
  Obs.with_profiler p (fun () ->
      Obs.set_clock 10.0;
      Obs.span "work" (fun () -> Obs.advance_clock 5.0));
  match Obs.Profiler.spans p with
  | [ s ] ->
    Alcotest.(check (float 0.0)) "vbegin" 10.0 s.Obs.Profiler.sp_vbegin;
    Alcotest.(check (float 0.0)) "vend" 15.0 s.Obs.Profiler.sp_vend
  | _ -> Alcotest.fail "expected one span"

(* ------------------------- serialization -------------------------- *)

(* Compile the kernel once: loop ids are gensym'd per compile, so two
   compiles give structurally equal but differently-named configs. *)
let kmeans =
  lazy
    (let w = Option.get (W.find "KMeans") in
     (w, W.compile w))

let run_profiled_dse ?size () =
  let w, c = Lazy.force kmeans in
  let opts = { Driver.default_s2fa_opts with Driver.so_time_limit = 30.0 } in
  let p = Obs.Profiler.create ?size () in
  let result =
    Obs.with_profiler p (fun () ->
        S2fa.explore ~opts ~tasks:w.W.w_tasks c (Rng.create 7))
  in
  (result, p)

let serialize spans =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string buf (Obs.span_to_json s);
      Buffer.add_char buf '\n')
    spans;
  Buffer.contents buf

let test_span_log_reproducible () =
  let _, p1 = run_profiled_dse () in
  let _, p2 = run_profiled_dse () in
  let a = serialize (Obs.Profiler.spans p1) in
  let b = serialize (Obs.Profiler.spans p2) in
  Alcotest.(check bool) "log non-empty" true (String.length a > 0);
  Alcotest.(check string) "byte-identical across runs" a b

let test_span_log_pool_size_independent () =
  let logs =
    List.map
      (fun size ->
        let _, p = run_profiled_dse ~size () in
        serialize (Obs.Profiler.spans p))
      [ 1; 16; 1024 ]
  in
  match logs with
  | [ a; b; c ] ->
    Alcotest.(check string) "size 1 = size 16" a b;
    Alcotest.(check string) "size 16 = size 1024" b c
  | _ -> assert false

let test_zero_observer_effect () =
  let w, c = Lazy.force kmeans in
  let opts = { Driver.default_s2fa_opts with Driver.so_time_limit = 30.0 } in
  let run () = S2fa.explore ~opts ~tasks:w.W.w_tasks c (Rng.create 7) in
  let plain = run () in
  let profiled, _ = run_profiled_dse () in
  Alcotest.(check int) "same evaluations" plain.Driver.rr_evals
    profiled.Driver.rr_evals;
  Alcotest.(check bool) "same clock (bit-identical)" true
    (plain.Driver.rr_minutes = profiled.Driver.rr_minutes);
  match (plain.Driver.rr_best, profiled.Driver.rr_best) with
  | Some (ca, pa), Some (cb, pb) ->
    Alcotest.(check string) "same design" (Space.key ca) (Space.key cb);
    Alcotest.(check bool) "same quality (bit-identical)" true (pa = pb)
  | None, None -> ()
  | _ -> Alcotest.fail "one run found a best, the other did not"

let test_json_roundtrip () =
  let _, p = run_profiled_dse () in
  List.iter
    (fun s ->
      match Obs.span_of_json (Obs.span_to_json s) with
      | None -> Alcotest.fail "roundtrip failed to parse"
      | Some s' ->
        (* Host fields are not serialized by default. *)
        Alcotest.(check bool) "deterministic fields survive" true
          (s' = { s with Obs.Profiler.sp_wall_ns = 0.0; sp_alloc_bytes = 0.0 }))
    (Obs.Profiler.spans p);
  (* With ~host:true the non-deterministic fields ride along. *)
  let s = List.hd (Obs.Profiler.spans p) in
  match Obs.span_of_json (Obs.span_to_json ~host:true s) with
  | Some s' -> Alcotest.(check bool) "host fields survive" true (s' = s)
  | None -> Alcotest.fail "host roundtrip failed to parse"

let test_load_file_rejects_garbage () =
  let bad = Filename.temp_file "obs" ".jsonl" in
  let oc = open_out bad in
  output_string oc "not a span\n";
  close_out oc;
  (match Obs.load_file bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected Error");
  Sys.remove bad

(* ------------------------- folded stacks -------------------------- *)

let test_folded_fallback_counts () =
  (* No virtual time advances: compile-only profile. Weights fall back
     to span counts so the flamegraph still renders. *)
  let p = Obs.Profiler.create () in
  Obs.with_profiler p (fun () ->
      for _ = 1 to 3 do
        Obs.span "a" (fun () -> Obs.span "b" (fun () -> ()))
      done);
  let rows = Obs.folded (Obs.Profiler.spans p) in
  Alcotest.(check (list (pair string int)))
    "span-count weights" [ ("a", 3); ("a;b", 3) ] rows

let test_folded_self_time () =
  let p = Obs.Profiler.create () in
  Obs.with_profiler p (fun () ->
      Obs.span "a" (fun () ->
          Obs.advance_clock 1.0;
          Obs.span "b" (fun () -> Obs.advance_clock 2.0)));
  let rows = Obs.folded (Obs.Profiler.spans p) in
  (* Self micro-minutes: a = 1.0, b = 2.0. *)
  Alcotest.(check (list (pair string int)))
    "self-time weights" [ ("a", 1_000_000); ("a;b", 2_000_000) ] rows

(* ------------------------- stage spans ---------------------------- *)

(* The profiler alone times the pipeline stages: a compile holds one
   span per front-end stage, and a DSE run without a result DB one
   [merlin.apply] and one [hls.estimate] per objective call, that is per
   search evaluation and per offline sample (114 + 96 at seed 7). *)
let test_stage_spans () =
  let w = Option.get (W.find "KMeans") in
  let p = Obs.Profiler.create () in
  let r =
    Obs.with_profiler p (fun () -> S2fa.explore (W.compile w) (Rng.create 7))
  in
  let spans = Obs.Profiler.spans p in
  let count ?(under = "") name =
    List.length
      (List.filter
         (fun s ->
           s.Obs.Profiler.sp_name = name
           && String.starts_with ~prefix:under s.Obs.Profiler.sp_path)
         spans)
  in
  Alcotest.(check int) "one compile" 1 (count "core.compile");
  List.iter
    (fun stage ->
      Alcotest.(check int) ("core.compile holds one " ^ stage) 1
        (count ~under:"core.compile;" stage))
    [ "scala.parse"; "scala.typecheck"; "jvm.compile"; "b2c.decompile";
      "b2c.flatten" ];
  let calls =
    r.Driver.rr_evals + Driver.default_s2fa_opts.Driver.so_samples
  in
  Alcotest.(check int) "merlin.apply per objective call" calls
    (count "merlin.apply");
  Alcotest.(check int) "hls.estimate per objective call" calls
    (count "hls.estimate")

(* ----------------------- perf trajectories ------------------------ *)

let traj results =
  { Perf.p_bench = "t"; p_unit = "ns/run"; p_results = results }

let test_perf_roundtrip () =
  let path = Filename.temp_file "perf" ".json" in
  let t = traj [ ("b.two", 2e9); ("a.one", 123.0) ] in
  Perf.save path t;
  let t' = Result.get_ok (Perf.load path) in
  Sys.remove path;
  Alcotest.(check string) "bench" "t" t'.Perf.p_bench;
  Alcotest.(check string) "unit" "ns/run" t'.Perf.p_unit;
  Alcotest.(check (list (pair string (float 0.0))))
    "results sorted" [ ("a.one", 123.0); ("b.two", 2e9) ] t'.Perf.p_results

let test_perf_diff_flags_regression () =
  let old_t = traj [ ("a", 100.0); ("b", 100.0) ] in
  let new_t = traj [ ("a", 200.0); ("b", 101.0) ] in
  let d = Perf.diff ~threshold:10.0 old_t new_t in
  (match d.Perf.d_regressions with
  | [ c ] ->
    Alcotest.(check string) "the 2x key" "a" c.Perf.c_name;
    Alcotest.(check (float 1e-9)) "+100%" 100.0 c.Perf.c_pct
  | _ -> Alcotest.fail "expected exactly one regression");
  Alcotest.(check int) "b is within threshold" 1 d.Perf.d_within

let test_perf_diff_passes_identical () =
  let t = traj [ ("a", 100.0); ("b", 2e9) ] in
  let d = Perf.diff ~threshold:10.0 t t in
  Alcotest.(check int) "no regressions" 0 (List.length d.Perf.d_regressions);
  Alcotest.(check int) "no improvements" 0
    (List.length d.Perf.d_improvements);
  Alcotest.(check int) "all within" 2 d.Perf.d_within

let test_perf_diff_improvement_and_churn () =
  let old_t = traj [ ("a", 100.0); ("gone", 5.0) ] in
  let new_t = traj [ ("a", 50.0); ("fresh", 7.0) ] in
  let d = Perf.diff ~threshold:10.0 old_t new_t in
  Alcotest.(check int) "no regressions" 0 (List.length d.Perf.d_regressions);
  (match d.Perf.d_improvements with
  | [ c ] -> Alcotest.(check (float 1e-9)) "-50%" (-50.0) c.Perf.c_pct
  | _ -> Alcotest.fail "expected one improvement");
  Alcotest.(check (list string)) "removed keys" [ "gone" ] d.Perf.d_only_old;
  Alcotest.(check (list string)) "added keys" [ "fresh" ] d.Perf.d_only_new

(* -------------------------- prometheus ---------------------------- *)

let test_prometheus_exposition () =
  let m = Telemetry.Metrics.create () in
  Telemetry.Metrics.incr ~by:3 m "evals.total";
  Telemetry.Metrics.set_gauge m "best quality" 0.5;
  Telemetry.Metrics.observe ~buckets:[| 1.0; 10.0 |] m "lat" 0.5;
  Telemetry.Metrics.observe m "lat" 5.0;
  let snap = Telemetry.Metrics.snapshot m in
  let a = Obs.prometheus_of_snapshot snap in
  let b = Obs.prometheus_of_snapshot snap in
  Alcotest.(check string) "deterministic" a b;
  let has needle =
    Alcotest.(check bool) ("has " ^ needle) true
      (let hl = String.length a and nl = String.length needle in
       let rec go i =
         i + nl <= hl && (String.sub a i nl = needle || go (i + 1))
       in
       go 0)
  in
  has "# TYPE s2fa_evals_total counter";
  has "s2fa_evals_total 3";
  has "# TYPE s2fa_best_quality gauge";
  has "# TYPE s2fa_lat histogram";
  has "s2fa_lat_bucket{le=\"1\"} 1";
  has "s2fa_lat_bucket{le=\"10\"} 2";
  has "s2fa_lat_bucket{le=\"+Inf\"} 2";
  has "s2fa_lat_sum 5.5";
  has "s2fa_lat_count 2"

let () =
  Alcotest.run "obs"
    [ ( "profiler",
        [ Alcotest.test_case "nesting + counters" `Quick
            test_nesting_and_counters;
          Alcotest.test_case "exception safety" `Quick test_exception_safety;
          Alcotest.test_case "disabled passthrough" `Quick
            test_disabled_is_passthrough;
          Alcotest.test_case "virtual-clock attribution" `Quick
            test_virtual_clock_attribution ] );
      ( "determinism",
        [ Alcotest.test_case "span log byte-reproducible" `Quick
            test_span_log_reproducible;
          Alcotest.test_case "pool-size independent" `Quick
            test_span_log_pool_size_independent;
          Alcotest.test_case "zero observer effect" `Quick
            test_zero_observer_effect ] );
      ( "serialization",
        [ Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "load_file rejects garbage" `Quick
            test_load_file_rejects_garbage;
          Alcotest.test_case "folded fallback to counts" `Quick
            test_folded_fallback_counts;
          Alcotest.test_case "folded self time" `Quick test_folded_self_time ]
      );
      ( "stages",
        [ Alcotest.test_case "compile and explore spans" `Quick
            test_stage_spans ] );
      ( "perf",
        [ Alcotest.test_case "save/load roundtrip" `Quick test_perf_roundtrip;
          Alcotest.test_case "diff flags 2x regression" `Quick
            test_perf_diff_flags_regression;
          Alcotest.test_case "diff passes identical" `Quick
            test_perf_diff_passes_identical;
          Alcotest.test_case "diff improvements + churn" `Quick
            test_perf_diff_improvement_and_churn ] );
      ( "prometheus",
        [ Alcotest.test_case "text exposition" `Quick
            test_prometheus_exposition ] ) ]
