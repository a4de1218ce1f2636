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
module Fuzz = S2fa_fuzz.Fuzz
module Fleet = S2fa_fleet.Fleet
module Traffic = S2fa_workloads.Traffic

let kmeans = lazy (W.compile (Option.get (W.find "KMeans")))

let quick_opts =
  { Driver.default_s2fa_opts with
    Driver.so_time_limit = 30.0;
    so_samples = 24 }

(* ---------- event vocabulary & serialization ---------- *)

(* Where each kind stands in [T.kind]'s declaration. The match has no
   wildcard, so a new kind fails to compile here, and then fails
   [test_every_kind_sampled] until [sample_events] holds one of it. *)
let kind_rank : T.kind -> int = function
  | T.Run_begin _ -> 0
  | T.Run_end _ -> 1
  | T.Eval_start _ -> 2
  | T.Eval_done _ -> 3
  | T.Bandit_select _ -> 4
  | T.Partition_start _ -> 5
  | T.Partition_stop _ -> 6
  | T.Entropy_sample _ -> 7
  | T.Seed_injected _ -> 8
  | T.Fault_injected _ -> 9
  | T.Eval_retry _ -> 10
  | T.Quarantined _ -> 11
  | T.Core_lost _ -> 12
  | T.Failover _ -> 13
  | T.Checkpoint_written _ -> 14
  | T.Serve_enqueue _ -> 15
  | T.Serve_batch _ -> 16
  | T.Serve_reconfig _ -> 17
  | T.Serve_fallback _ -> 18
  | T.Serve_complete _ -> 19
  | T.Serve_shed _ -> 20
  | T.Serve_timeout _ -> 21
  | T.Serve_hedge _ -> 22
  | T.Serve_breaker _ -> 23
  | T.Serve_deadline _ -> 24
  | T.Fed_route _ -> 25
  | T.Fed_autoscale _ -> 26
  | T.Fed_retune _ -> 27
  | T.Fed_promote _ -> 28

let n_kinds = 29

(* Awkward values on purpose: a quote, a backslash, control characters,
   DEL and non-ASCII bytes in one string; 0.1 + 0.2 (not representable:
   0.30000000000000004), -0, +-inf, nan, the extreme doubles, and the
   largest integers a double holds exactly. *)
let awkward = "q\"b\\t\tn\nr\r\x00\x01\x1f\x7f caf\xc3\xa9"

let tenth_sum = 0.1 +. 0.2

let max_exact = (1 lsl 53) - 1

(* Every kind at least once, in declaration order; the kinds with an
   enumerated or optional-looking field once per awkward case. *)
let sample_events =
  [ T.Run_begin { flow = "s2fa"; cores = 8; time_limit = 240.0 };
    T.Run_begin { flow = awkward; cores = 0; time_limit = infinity };
    T.Run_end { minutes = 239.5; evals = 512; best = 6.5e-4 };
    T.Run_end { minutes = -0.0; evals = 0; best = infinity };
    T.Eval_start { cfg_key = "a=1;b=\"x\""; partition = 0; technique = "ga" };
    T.Eval_start { cfg_key = ""; partition = -1; technique = "" };
    T.Eval_done
      { cfg_key = "a=1";
        quality = tenth_sum;
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
    T.Bandit_select { arm = 0; technique = ""; scores = [||] };
    T.Bandit_select
      { arm = -1;
        technique = awkward;
        scores =
          [| -0.0; neg_infinity; tenth_sum; 5e-324; max_float; 1e21; -1e-7 |] };
    T.Partition_start
      { partition = 1; core = 4; constrs = "par_L1<=16 & pipe_L2 in {on,off}";
        points = 1.23456789012345e+15 };
    T.Partition_start { partition = 0; core = 0; constrs = ""; points = 7.45e16 };
    T.Partition_stop
      { partition = 1; core = 4; reason = T.Stop_entropy; evals = 17 };
    T.Partition_stop { partition = 2; core = 0; reason = T.Stop_time; evals = 0 };
    T.Partition_stop
      { partition = 3; core = 7; reason = T.Stop_exhausted; evals = max_exact };
    T.Partition_stop
      { partition = 4; core = 1; reason = T.Stop_trivial; evals = 5 };
    T.Entropy_sample { partition = 1; evaluated = 9; entropy = 1.9219280948 };
    T.Entropy_sample { partition = 0; evaluated = 0; entropy = nan };
    T.Seed_injected { cfg_key = "a=3"; partition = 2 };
    T.Fault_injected
      { cfg_key = "a=1"; partition = 2; failure = "hang";
        lost_minutes = tenth_sum; attempt = 1 };
    T.Eval_retry
      { cfg_key = awkward; partition = -1; attempt = 3; backoff_minutes = 0.5 };
    T.Quarantined
      { cfg_key = "pipe_L1=flatten"; partition = 5; attempts = 4;
        lost_minutes = infinity };
    T.Core_lost { core = 7; partition = -1 };
    T.Failover { partition = 2; from_core = 7; to_core = 0 };
    T.Checkpoint_written
      { path = "run \"7\".ck.jsonl"; minutes = 30.0; evals = 12 };
    T.Checkpoint_written { path = ""; minutes = -0.0; evals = -max_exact };
    T.Serve_enqueue { app = "KMeans"; request = 41; queue_len = 7 };
    T.Serve_batch
      { app = "K\"Means"; device = 1; size = 16; service_minutes = tenth_sum };
    T.Serve_reconfig
      { device = 0; from_app = ""; to_app = "LR"; minutes = 0.05 };
    T.Serve_fallback { app = "LR"; request = 99; reason = "overflow" };
    T.Serve_complete
      { app = "LR"; request = 99; latency_minutes = 1.25e-7;
        accelerated = false };
    T.Serve_complete
      { app = awkward; request = 0; latency_minutes = 0.0; accelerated = true };
    T.Serve_shed
      { app = "S-W"; request = max_exact; stage = "dispatch";
        deadline_minutes = nan; estimate_minutes = neg_infinity };
    T.Serve_timeout { app = ""; device = 3; size = 1; waited_minutes = 1e-7 };
    T.Serve_hedge { app = "LR"; from_device = 0; to_device = 3; size = 16 };
    T.Serve_breaker
      { device = 1; from_state = "healthy"; to_state = "quarantined" };
    T.Serve_deadline
      { app = "PR"; request = -max_exact; met = false; slack_minutes = -0.0 };
    T.Serve_deadline
      { app = "PR"; request = 7; met = true; slack_minutes = tenth_sum };
    T.Fed_route
      { app = "KMeans"; request = 0; region = 1; cluster = "west\n";
        rtt_minutes = 2.0 /. 60000.0 };
    T.Fed_autoscale
      { cluster = "east"; action = "lease"; devices = 3; queue_len = 64 };
    T.Fed_retune
      { app = "S-W"; epoch = 4; p99_minutes = 0.051; slo_minutes = tenth_sum;
        tune_minutes = 30.0; evals = 48 };
    T.Fed_promote { app = "S-W"; epoch = 4; cfg = awkward } ]
  |> List.mapi (fun i kind ->
         let stamps = [| 0.5; tenth_sum; -0.0; 1e-7; infinity; nan; 239.5 |] in
         { T.e_seq = i;
           e_minutes = stamps.(i mod Array.length stamps);
           e_kind = kind })

let test_every_kind_sampled () =
  Alcotest.(check (list int)) "one sample or more of every kind"
    (List.init n_kinds Fun.id)
    (List.sort_uniq compare
       (List.map (fun e -> kind_rank e.T.e_kind) sample_events))

let test_json_roundtrip () =
  List.iter
    (fun ev ->
      let line = T.json_of_event ev in
      match T.event_of_json line with
      | None -> Alcotest.failf "unparsable: %s" line
      | Some ev' ->
        (* Structural equality via compare covers nan (compare nan nan = 0)
           and distinguishes every payload field bit for bit; encoding
           again tells -0 from 0, which compare does not. *)
        if compare ev ev' <> 0 then
          Alcotest.failf "round-trip changed the event: %s" line;
        Alcotest.(check string) "re-encodes byte for byte" line
          (T.json_of_event ev'))
    sample_events

(* dune runtest runs us in test/; a bare [dune exec] runs from the
   workspace root. *)
let golden name =
  let dir =
    if Sys.file_exists "golden" && Sys.is_directory "golden" then "golden"
    else "test/golden"
  in
  Filename.concat dir name

(* Each sample's encoding, byte for byte, in golden/events.jsonl;
   [S2FA_UPDATE_GOLDEN=1] rewrites it. *)
let test_events_golden () =
  let path = golden "events.jsonl" in
  let got = List.map T.json_of_event sample_events in
  if Sys.getenv_opt "S2FA_UPDATE_GOLDEN" = Some "1" then
    Out_channel.with_open_bin path (fun oc ->
        List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) got)
  else
    let want =
      In_channel.with_open_bin path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (( <> ) "")
    in
    Alcotest.(check (list string)) path want got

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
  bad "trailing comma" (fun () -> ignore (T.Json.parse_obj {|{"a":1,}|}));
  bad "number 1e400" (fun () -> ignore (T.Json.parse_obj {|{"a":1e400}|}));
  bad "int field 23.9" (fun () ->
      ignore (T.Json.get_int (T.Json.parse_obj {|{"a":23.9}|}) "a"));
  bad "int field 1e300" (fun () ->
      ignore (T.Json.get_int (T.Json.parse_obj {|{"a":1e300}|}) "a"));
  bad "int field \"inf\"" (fun () ->
      ignore (T.Json.get_int (T.Json.parse_obj {|{"a":"inf"}|}) "a"));
  (* Past 2^53 a double no longer holds every integer: these would read
     back as ...992 and ...976. *)
  bad "int field 9007199254740993" (fun () ->
      ignore
        (T.Json.get_int (T.Json.parse_obj {|{"a":9007199254740993}|}) "a"));
  bad "int field 1152921504606846975" (fun () ->
      ignore
        (T.Json.get_int (T.Json.parse_obj {|{"a":1152921504606846975}|}) "a"));
  (* Every file the tree writes holds flat objects. *)
  bad "nested object" (fun () ->
      ignore (T.Json.parse_obj "{\n  \"r\": {\n    \"a\": 1\n  }\n}\n"));
  (* Whitespace, newlines included, may surround members. *)
  Alcotest.(check bool) "whitespace around members" true
    (T.Json.parse_obj "{\n  \"a\": 1 ,\t\"b\" : \"x\"\n}\n"
    = [ ("a", T.Json.Jnum 1.0); ("b", T.Json.Jstr "x") ])

let test_stop_reason_names () =
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
  T.emit tr (T.Run_begin { flow = "s2fa"; cores = 1; time_limit = 10.0 });
  T.emit tr (T.Run_end { minutes = 3.5; evals = 0; best = infinity });
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
    T.emit tr (T.Seed_injected { cfg_key = "a=1"; partition = 0 })
  done;
  let evs = got () in
  Alcotest.(check int) "ring keeps 3" 3 (List.length evs);
  Alcotest.(check int) "most recent survive" 7 (List.hd evs).T.e_seq

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
     let fleet_text = read_text fleet_ck in
     Sys.remove fleet_ck;
     (* cwd is the test directory under [dune runtest], the project root
        under [dune exec]. *)
     let corpus =
       if Sys.file_exists "corpus" then "corpus"
       else Filename.concat "test" "corpus"
     in
     let reader load f = Result.map ignore (load f) in
     (* (name, contents, is a checkpoint, reader) *)
     [ ("trace", Buffer.contents trace, false, reader Trace.load);
       ("span log", lines (List.map Obs.span_to_json (Obs.Profiler.spans p)),
        false, reader Obs.load_file);
       ("dse checkpoint", lines (Driver.ck_lines (List.hd !snaps)), true,
        reader Driver.load_checkpoint);
       ("fleet checkpoint", fleet_text, true, reader Fleet.load_checkpoint);
       ("fuzz corpus", read_text (Filename.concat corpus "abs_long.scala"),
        false, reader Fuzz.replay_file) ])

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
        [ Alcotest.test_case "every kind sampled" `Quick
            test_every_kind_sampled;
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "encodings pinned" `Quick test_events_golden;
          Alcotest.test_case "rejects malformed" `Quick
            test_json_rejects_malformed;
          Alcotest.test_case "json raises only Bad" `Quick
            test_json_raises_only_bad;
          Alcotest.test_case "stop reason names" `Quick
            test_stop_reason_names ] );
      ( "tracer",
        [ Alcotest.test_case "sequencing" `Quick test_tracer_sequencing;
          Alcotest.test_case "collector capacity" `Quick
            test_collector_capacity;
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
      ( "readers",
        Alcotest.test_case "real artifacts load" `Quick test_artifacts_load
        :: List.map QCheck_alcotest.to_alcotest [ prop_readers_never_raise ] )
    ]
