(* Telemetry tests: the determinism contract (traced runs are
   bit-reproducible and tracing has zero observer effect), exact JSON
   round-trips, the trace-replay analyzer agreeing with the driver's
   own accounting, and every file reader under mutation. *)
module Rng = S2fa_util.Rng
module Space = S2fa_tuner.Space
module Driver = S2fa_dse.Driver
module T = S2fa_telemetry.Telemetry
module Trace = S2fa_telemetry.Trace
module W = S2fa_workloads.Workloads
module S2fa = S2fa_core.S2fa
module Obs = S2fa_obs.Obs
module Perf = S2fa_obs.Perf
module Fleet = S2fa_fleet.Fleet
module Traffic = S2fa_workloads.Traffic

let kmeans = lazy (W.compile (Option.get (W.find "KMeans")))

let quick_opts =
  { Driver.default_s2fa_opts with
    Driver.so_time_limit = 30.0;
    so_samples = 24 }

(* ---------- event vocabulary & serialization ---------- *)

let sample_events =
  (* One of every kind, with awkward floats on purpose. *)
  [ T.Run_begin { flow = "s2fa"; cores = 8; time_limit = 240.0 };
    T.Span_begin T.Parse;
    T.Span_end T.Parse;
    T.Eval_start { cfg_key = "a=1;b=\"x\""; partition = 0; technique = "ga" };
    T.Eval_done
      { cfg_key = "a=1";
        quality = 0.1 +. 0.2 (* not representable exactly: 0.30000000000000004 *);
        feasible = true;
        eval_minutes = 12.5;
        cache_hit = false;
        partition = 3;
        technique = "DifferentialEvolution";
        improved = true };
    T.Eval_done
      { cfg_key = "a=2";
        quality = infinity;
        feasible = false;
        eval_minutes = 1.0;
        cache_hit = true;
        partition = -1;
        technique = "";
        improved = false };
    T.Bandit_select
      { arm = 2; technique = "pso"; scores = [| 0.5; nan; infinity |] };
    T.Partition_start
      { partition = 1; core = 4; constrs = "par_L1<=16 & pipe_L2 in {on,off}";
        points = 1.23456789012345e+15 };
    T.Partition_stop
      { partition = 1; core = 4; reason = T.Stop_entropy; evals = 17 };
    T.Entropy_sample { partition = 1; evaluated = 9; entropy = 1.9219280948 };
    T.Seed_injected { cfg_key = "a=3"; partition = 2 };
    T.Serve_enqueue { app = "KMeans"; request = 41; queue_len = 7 };
    T.Serve_batch
      { app = "K\"Means"; device = 1; size = 16;
        service_minutes = 0.1 +. 0.2 };
    T.Serve_reconfig
      { device = 0; from_app = ""; to_app = "LR"; minutes = 0.05 };
    T.Serve_fallback { app = "LR"; request = 99; reason = "overflow" };
    T.Serve_complete
      { app = "LR"; request = 99; latency_minutes = 1.25e-7;
        accelerated = false };
    T.Run_end { minutes = 239.5; evals = 512; best = 6.5e-4 } ]
  |> List.mapi (fun i kind ->
         { T.e_seq = i; e_minutes = float_of_int i *. 0.5; e_kind = kind })

let test_json_roundtrip () =
  List.iter
    (fun ev ->
      let line = T.json_of_event ev in
      match T.event_of_json line with
      | None -> Alcotest.failf "unparsable: %s" line
      | Some ev' ->
        (* Structural equality via compare covers nan (compare nan nan = 0)
           and distinguishes every payload field bit for bit. *)
        if compare ev ev' <> 0 then
          Alcotest.failf "round-trip changed the event: %s" line)
    sample_events

let test_json_rejects_malformed () =
  List.iter
    (fun line ->
      Alcotest.(check bool) ("rejects " ^ line) true
        (T.event_of_json line = None))
    [ ""; "{"; "{}"; "{\"seq\":0}"; "{\"seq\":0,\"min\":1,\"ev\":\"nope\"}" ]

(* The codec's one failure mode: a bad number, escape or float-valued
   string raises [Json.Bad], which every reader handles, and never a
   stray [Failure]. *)
let test_json_raises_only_bad () =
  let bad what f =
    match f () with
    | exception T.Json.Bad -> ()
    | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e)
    | _ -> Alcotest.failf "%s accepted" what
  in
  bad "number 6-06" (fun () -> ignore (T.Json.parse_obj {|{"a":6-06}|}));
  bad "escape \\u00zz" (fun () -> ignore (T.Json.parse_obj {|{"a":"\u00zz"}|}));
  bad "array string" (fun () -> ignore (T.Json.parse_obj {|{"a":["x"]}|}));
  bad "float field \"x\"" (fun () ->
      ignore (T.Json.get_float (T.Json.parse_obj {|{"a":"x"}|}) "a"));
  (* Strictness: nothing after the object, no duplicate key at any
     depth, no trailing comma, finite number literals only, and integer
     fields that are integers. *)
  bad "trailing content" (fun () -> ignore (T.Json.parse_obj {|{"a":1}junk|}));
  bad "duplicate key" (fun () -> ignore (T.Json.parse_obj {|{"a":1,"a":5}|}));
  bad "nested duplicate key" (fun () ->
      ignore
        (T.Json.parse_obj
           {|{"bench":"t","unit":"ns","results":{"a":1,"a":5}}|}));
  bad "trailing comma" (fun () -> ignore (T.Json.parse_obj {|{"a":1,}|}));
  bad "number 1e400" (fun () -> ignore (T.Json.parse_obj {|{"a":1e400}|}));
  bad "int field 23.9" (fun () ->
      ignore (T.Json.get_int (T.Json.parse_obj {|{"a":23.9}|}) "a"));
  bad "int field 1e300" (fun () ->
      ignore (T.Json.get_int (T.Json.parse_obj {|{"a":1e300}|}) "a"));
  bad "int field \"inf\"" (fun () ->
      ignore (T.Json.get_int (T.Json.parse_obj {|{"a":"inf"}|}) "a"));
  (* What the tree writes still parses: whitespace and newlines around
     members, and a nested object. *)
  Alcotest.(check bool) "multi-line nested object" true
    (T.Json.parse_obj "{\n  \"r\": {\n    \"a\": 1\n  }\n}\n"
    = [ ("r", T.Json.Jobj [ ("a", T.Json.Jnum 1.0) ]) ])

let test_stage_and_reason_names () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (T.stage_name s) true
        (T.stage_of_name (T.stage_name s) = Some s))
    [ T.Parse; T.Typecheck; T.Bytecode; T.Decompile; T.Transform; T.Estimate ];
  List.iter
    (fun r ->
      Alcotest.(check bool) (T.stop_reason_name r) true
        (T.stop_reason_of_name (T.stop_reason_name r) = Some r))
    [ T.Stop_time; T.Stop_exhausted; T.Stop_entropy; T.Stop_trivial ]

(* ---------- tracer & sinks ---------- *)

let test_tracer_sequencing () =
  let sink, got = T.collector () in
  let tr = T.create ~sinks:[ sink ] () in
  T.set_clock tr 3.5;
  T.emit tr (T.Span_begin T.Parse);
  T.emit tr (T.Span_end T.Parse);
  Alcotest.(check int) "emitted" 2 (T.emitted tr);
  match got () with
  | [ a; b ] ->
    Alcotest.(check int) "seq 0" 0 a.T.e_seq;
    Alcotest.(check int) "seq 1" 1 b.T.e_seq;
    Alcotest.(check (float 0.0)) "virtual stamp" 3.5 a.T.e_minutes
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_collector_capacity () =
  let sink, got = T.collector ~capacity:3 () in
  let tr = T.create ~sinks:[ sink ] () in
  for _ = 1 to 10 do
    T.emit tr (T.Span_begin T.Parse)
  done;
  let evs = got () in
  Alcotest.(check int) "ring keeps 3" 3 (List.length evs);
  Alcotest.(check int) "most recent survive" 7 (List.hd evs).T.e_seq

let test_metrics_registry () =
  let m = T.Metrics.create () in
  T.Metrics.incr m "a";
  T.Metrics.incr ~by:4 m "a";
  T.Metrics.incr m "b";
  T.Metrics.set_gauge m "g" 2.5;
  T.Metrics.observe ~buckets:[| 1.0; 10.0 |] m "h" 0.5;
  T.Metrics.observe m "h" 5.0;
  T.Metrics.observe m "h" 100.0;
  let s = T.Metrics.snapshot m in
  Alcotest.(check int) "counter a" 5 (T.Metrics.counter s "a");
  Alcotest.(check int) "counter b" 1 (T.Metrics.counter s "b");
  Alcotest.(check int) "absent counter" 0 (T.Metrics.counter s "zzz");
  Alcotest.(check (list string)) "counters sorted" [ "a"; "b" ]
    (List.map fst s.T.Metrics.ms_counters);
  match s.T.Metrics.ms_histograms with
  | [ ("h", h) ] ->
    Alcotest.(check int) "observations" 3 h.T.Metrics.h_count;
    Alcotest.(check (float 1e-9)) "sum" 105.5 h.T.Metrics.h_sum;
    (* 0.5 -> bucket <=1, 5.0 -> bucket <=10, 100.0 -> overflow *)
    Alcotest.(check (list int)) "bucket counts" [ 1; 1; 1 ]
      (Array.to_list h.T.Metrics.h_counts)
  | _ -> Alcotest.fail "expected one histogram"

let test_logs_sink_silent_by_default () =
  (* Without a reporter the logs sink must be inert: no output, no
     exception, and the events still reach other sinks untouched. *)
  let sink, got = T.collector () in
  let tr = T.create ~sinks:[ T.logs_sink (); sink ] () in
  T.emit tr (T.Run_begin { flow = "x"; cores = 1; time_limit = 1.0 });
  T.flush tr;
  Alcotest.(check int) "event fanned out" 1 (List.length (got ()))

(* ---------- determinism & zero observer effect ---------- *)

let traced_run seed =
  let c = Lazy.force kmeans in
  let buf = Buffer.create 4096 in
  let tr = T.create ~sinks:[ T.buffer_sink buf ] () in
  let r = S2fa.explore ~opts:quick_opts ~trace:tr c (Rng.create seed) in
  (r, Buffer.contents buf)

let test_trace_bit_reproducible () =
  let _, j1 = traced_run 11 in
  let _, j2 = traced_run 11 in
  Alcotest.(check bool) "non-empty JSONL" true (String.length j1 > 0);
  Alcotest.(check string) "byte-identical JSONL under one seed" j1 j2

let test_zero_observer_effect () =
  let c = Lazy.force kmeans in
  let plain = S2fa.explore ~opts:quick_opts c (Rng.create 12) in
  let traced, _ = traced_run 12 in
  Alcotest.(check int) "same evals" plain.Driver.rr_evals
    traced.Driver.rr_evals;
  Alcotest.(check bool) "same virtual minutes (bit-identical)" true
    (compare plain.Driver.rr_minutes traced.Driver.rr_minutes = 0);
  match (plain.Driver.rr_best, traced.Driver.rr_best) with
  | Some (c1, p1), Some (c2, p2) ->
    Alcotest.(check string) "same best design" (Space.key c1) (Space.key c2);
    Alcotest.(check bool) "same best quality (bit-identical)" true
      (compare p1 p2 = 0)
  | None, None -> ()
  | _ -> Alcotest.fail "traced and untraced disagree on feasibility"

(* ---------- replay ---------- *)

let replayed seed =
  let c = Lazy.force kmeans in
  let sink, got = T.collector () in
  let tr = T.create ~sinks:[ sink ] () in
  let r = S2fa.explore ~opts:quick_opts ~trace:tr c (Rng.create seed) in
  (r, Trace.of_events (got ()))

let test_replay_curve_exact () =
  let r, t = replayed 13 in
  let drv = Driver.best_curve r in
  let rep = Trace.best_curve t in
  Alcotest.(check int) "same curve length" (List.length drv) (List.length rep);
  (* compare = 0 asserts bit-identical floats, not approximate ones. *)
  Alcotest.(check bool) "bit-identical best-so-far curve" true
    (compare drv rep = 0)

let test_replay_summary_matches_run () =
  let r, t = replayed 14 in
  let rp = Trace.replay t in
  Alcotest.(check string) "flow" "s2fa" rp.Trace.rp_flow;
  Alcotest.(check int) "search evals" r.Driver.rr_evals rp.Trace.rp_evals;
  Alcotest.(check int) "offline probes = so_samples"
    quick_opts.Driver.so_samples rp.Trace.rp_offline;
  Alcotest.(check bool) "run end stamped (bit-identical)" true
    (compare r.Driver.rr_minutes rp.Trace.rp_minutes = 0);
  (match r.Driver.rr_best with
  | Some (_, p) ->
    Alcotest.(check bool) "best quality (bit-identical)" true
      (compare p rp.Trace.rp_best = 0)
  | None -> Alcotest.(check bool) "no best" true (rp.Trace.rp_best = infinity));
  Alcotest.(check bool) "every partition started stopped" true
    (rp.Trace.rp_occupancy <> []);
  List.iter
    (fun (o : Trace.occ_row) ->
      Alcotest.(check bool) "occupancy interval ordered" true
        (o.Trace.oc_start <= o.Trace.oc_stop))
    rp.Trace.rp_occupancy

let test_replay_via_jsonl_file () =
  (* The full pipeline users run: dse --trace writes JSONL, s2fa trace
     parses it back. Parsing must lose nothing the analyzer needs. *)
  let r, jsonl = traced_run 15 in
  let path = Filename.temp_file "s2fa_trace" ".jsonl" in
  let oc = open_out path in
  output_string oc jsonl;
  close_out oc;
  let t =
    match Trace.load path with
    | Ok t -> t
    | Error m -> Alcotest.failf "load failed: %s" m
  in
  Sys.remove path;
  Alcotest.(check bool) "curve from disk bit-identical" true
    (compare (Driver.best_curve r) (Trace.best_curve t) = 0)

let test_parse_lines_reports_bad_line () =
  match Trace.parse_lines [ "{\"seq\":0"; "" ] with
  | Error m ->
    Alcotest.(check bool) "names the line" true
      (String.length m > 0 && String.contains m '1')
  | Ok _ -> Alcotest.fail "accepted a malformed line"

(* ---------- metrics snapshot of a run ---------- *)

let test_run_metrics_snapshot () =
  let r, _ = traced_run 16 in
  match r.Driver.rr_metrics with
  | None -> Alcotest.fail "traced run must carry a metrics snapshot"
  | Some s ->
    Alcotest.(check int) "evals counter" r.Driver.rr_evals
      (T.Metrics.counter s "evals");
    Alcotest.(check int) "offline counter" quick_opts.Driver.so_samples
      (T.Metrics.counter s "evals.offline");
    Alcotest.(check int) "runs" 1 (T.Metrics.counter s "runs");
    Alcotest.(check bool) "partitions started" true
      (T.Metrics.counter s "partitions.started" > 0);
    (* The kernel was compiled before tracing started, so compile-stage
       spans are absent; the per-evaluation transform/estimate spans
       must be there, one pair per probe. *)
    Alcotest.(check bool) "spans seen" true
      (T.Metrics.counter s "spans.estimate" > 0)

let test_untraced_run_has_no_metrics () =
  let c = Lazy.force kmeans in
  let r = S2fa.explore ~opts:quick_opts c (Rng.create 17) in
  Alcotest.(check bool) "no snapshot without a tracer" true
    (r.Driver.rr_metrics = None)

(* ---------- readers under mutation ---------- *)

(* One real file of each kind the tree reads, from seeded runs, with
   its reader. A checkpoint must reject a cut or a deleted line at load
   time; no reader may raise on any mutation. *)

let read_text path = In_channel.with_open_bin path In_channel.input_all

let artifacts =
  lazy
    (let c = Lazy.force kmeans in
     let trace = Buffer.create 4096 in
     let tr = T.create ~sinks:[ T.buffer_sink trace ] () in
     let snaps = ref [] in
     let checkpoint =
       { Driver.ck_path = None;
         ck_every = 8.0;
         ck_meta = [ ("seed", "7") ];
         ck_hook = Some (fun ck -> snaps := ck :: !snaps) }
     in
     let p = Obs.Profiler.create () in
     ignore
       (Obs.with_profiler p (fun () ->
            S2fa.explore ~opts:quick_opts ~trace:tr ~checkpoint c
              (Rng.create 7)));
     let lines l = String.concat "" (List.map (fun s -> s ^ "\n") l) in
     let fleet_ck = Filename.temp_file "s2fa_fleet" ".ck" in
     let ts =
       [ Traffic.tenant ~rate:400.0 ~weight:1.0 (Option.get (W.find "KMeans"));
         Traffic.tenant ~rate:300.0 ~weight:2.0 (Option.get (W.find "LR")) ]
     in
     ignore
       (Fleet.serve
          ~checkpoint:
            { Fleet.cks_path = fleet_ck; cks_every_s = 2.0; cks_meta = [] }
          (Traffic.apps ~seed:7 ts)
          (Traffic.requests ~seed:7 ~horizon:0.5 ts));
     let bench = Filename.temp_file "s2fa_bench" ".json" in
     Perf.save bench
       { Perf.p_bench = "t";
         p_unit = "ns/run";
         p_results = [ ("a.one", 123.0); ("b.two", 2e9); ("c", 0.0) ] };
     let fleet_text = read_text fleet_ck and bench_text = read_text bench in
     Sys.remove fleet_ck;
     Sys.remove bench;
     let reader load f = Result.map ignore (load f) in
     (* (name, contents, is a checkpoint, reader) *)
     [ ("trace", Buffer.contents trace, false, reader Trace.load);
       ("span log", lines (List.map Obs.span_to_json (Obs.Profiler.spans p)),
        false, reader Obs.load_file);
       ("dse checkpoint", lines (Driver.ck_lines (List.hd !snaps)), true,
        reader Driver.load_checkpoint);
       ("fleet checkpoint", fleet_text, true, reader Fleet.load_checkpoint);
       ("bench", bench_text, false, reader Perf.load) ])

(* [m] reads "PATH:LINE: ...". *)
let located path m =
  let pre = String.length path + 1 in
  String.starts_with ~prefix:(path ^ ":") m
  &&
  match String.index_from_opt m pre ':' with
  | Some i -> int_of_string_opt (String.sub m pre (i - pre)) <> None
  | None -> false

let junk = [| "junk"; "}"; ","; "\""; " 1"; "{\"ck\":\"end\"}"; "\\" |]

(* Mutation [kind] at positions [i], [j] of [text] (which ends in a
   newline): 0 cuts strictly before the last byte, 1 deletes a line, 2
   duplicates one, 3 swaps two, 4 appends junk to one. *)
let mutate text (kind, i, j) =
  let n = String.length text in
  let ls = String.split_on_char '\n' (String.sub text 0 (n - 1)) in
  let k = i mod List.length ls and l = j mod List.length ls in
  let each f = String.concat "" (List.concat (List.mapi f ls)) in
  match kind with
  | 0 -> String.sub text 0 (i mod (n - 1))
  | 1 -> each (fun x s -> if x = k then [] else [ s; "\n" ])
  | 2 -> each (fun x s -> if x = k then [ s; "\n"; s; "\n" ] else [ s; "\n" ])
  | 3 ->
    let line x = List.nth ls x in
    each (fun x s ->
        [ (if x = k then line l else if x = l then line k else s); "\n" ])
  | _ ->
    let tail = junk.(j mod Array.length junk) in
    each (fun x s -> if x = k then [ s; tail; "\n" ] else [ s; "\n" ])

let test_artifacts_load () =
  List.iter
    (fun (name, text, _, read) ->
      let path = Filename.temp_file "s2fa_reader" ".txt" in
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      let r = read path in
      Sys.remove path;
      match r with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s does not load: %s" name m)
    (Lazy.force artifacts)

let prop_readers_never_raise =
  QCheck.Test.make ~name:"readers never raise on mutated real files"
    ~count:400
    QCheck.(
      quad (int_range 0 4) (int_range 0 4) (int_bound 1_000_000)
        (int_bound 1_000_000))
    (fun (a, kind, i, j) ->
      let name, text, checkpoint, read = List.nth (Lazy.force artifacts) a in
      let path = Filename.temp_file "s2fa_mutant" ".txt" in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (mutate text (kind, i, j)));
      let r =
        match read path with
        | r -> r
        | exception e ->
          Sys.remove path;
          QCheck.Test.fail_reportf "%s reader raised %s" name
            (Printexc.to_string e)
      in
      Sys.remove path;
      match r with
      | Error m when not (located path m || String.starts_with ~prefix:path m)
        ->
        QCheck.Test.fail_reportf "%s: error names no file: %s" name m
      | Ok () when checkpoint && kind <= 1 ->
        QCheck.Test.fail_reportf "%s accepted after mutation %d" name kind
      | Error m when checkpoint && kind <= 1 && not (located path m) ->
        QCheck.Test.fail_reportf "%s: rejection names no line: %s" name m
      | _ -> true)

let () =
  Alcotest.run "telemetry"
    [ ( "events",
        [ Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick
            test_json_rejects_malformed;
          Alcotest.test_case "json raises only Bad" `Quick
            test_json_raises_only_bad;
          Alcotest.test_case "stage/reason names" `Quick
            test_stage_and_reason_names ] );
      ( "tracer",
        [ Alcotest.test_case "sequencing" `Quick test_tracer_sequencing;
          Alcotest.test_case "collector capacity" `Quick
            test_collector_capacity;
          Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
          Alcotest.test_case "logs sink silent" `Quick
            test_logs_sink_silent_by_default ] );
      ( "determinism",
        [ Alcotest.test_case "bit-reproducible JSONL" `Quick
            test_trace_bit_reproducible;
          Alcotest.test_case "zero observer effect" `Quick
            test_zero_observer_effect ] );
      ( "replay",
        [ Alcotest.test_case "curve exact" `Quick test_replay_curve_exact;
          Alcotest.test_case "summary matches run" `Quick
            test_replay_summary_matches_run;
          Alcotest.test_case "via JSONL file" `Quick test_replay_via_jsonl_file;
          Alcotest.test_case "bad line reported" `Quick
            test_parse_lines_reports_bad_line ] );
      ( "metrics",
        [ Alcotest.test_case "run snapshot" `Quick test_run_metrics_snapshot;
          Alcotest.test_case "untraced has none" `Quick
            test_untraced_run_has_no_metrics ] );
      ( "readers",
        Alcotest.test_case "real artifacts load" `Quick test_artifacts_load
        :: List.map QCheck_alcotest.to_alcotest [ prop_readers_never_raise ] )
    ]
