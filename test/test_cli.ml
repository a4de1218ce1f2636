(* End-to-end smoke tests of the s2fa command-line tool: each subcommand
   must exit 0 and produce non-empty output. Runs the freshly built
   executable (a dune dependency of this test). *)

(* The CLI is built next to this test's directory; resolve it relative to
   the test binary so the suite works from any working directory. *)
let exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/s2fa_cli.exe"

(* Run [exe args], returning (exit_code, stdout). With [kill_after], a
   run still going after that many seconds is killed (exit 137). *)
let run ?kill_after args =
  let out = Filename.temp_file "s2fa_cli" ".out" in
  let cmd =
    match kill_after with
    | Some s -> Printf.sprintf "timeout -s KILL %d %s" s exe
    | None -> exe
  in
  let code = Sys.command (Printf.sprintf "%s %s > %s 2>&1" cmd args out) in
  let ic = open_in out in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Sys.remove out;
  (code, s)

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let check_ok name args =
  let code, out = run args in
  Alcotest.(check int) (name ^ ": exit code") 0 code;
  Alcotest.(check bool) (name ^ ": non-empty output") true
    (String.length (String.trim out) > 0);
  out

(* A rejected input: [args] exits 1 (not 125, an uncaught exception)
   and its output contains each of [needles] — the file, and the line
   wherever there is one. *)
let check_rejects what args needles =
  let code, out = run args in
  Alcotest.(check int) (what ^ ": exit code") 1 code;
  List.iter
    (fun n ->
      Alcotest.(check bool) (what ^ ": names " ^ n) true (contains out n))
    needles

(* Point a command at a directory, as if it were a file. *)
let check_rejects_dir what args_of =
  let dir = Filename.temp_dir "s2fa_cli" ".d" in
  check_rejects what (args_of dir) [ dir ^ ": " ];
  Sys.rmdir dir

let write_text path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let test_list () =
  let out = check_ok "list" "list" in
  (* All eight evaluation kernels are present. *)
  List.iter
    (fun k ->
      Alcotest.(check bool) ("lists " ^ k) true (contains out k))
    [ "PR"; "KMeans"; "KNN"; "LR"; "SVM"; "LLS"; "AES"; "S-W" ]

let test_compile () =
  let out = check_ok "compile" "compile -w KMeans" in
  Alcotest.(check bool) "generated a kernel function" true
    (contains out "kernel")

let test_compile_with_design () =
  let out = check_ok "compile --design" "compile -w KMeans --design area" in
  Alcotest.(check bool) "kernel present" true (contains out "kernel")

let test_dse () =
  let out = check_ok "dse" "dse -w KMeans --minutes 30 --seed 3" in
  Alcotest.(check bool) "prints a best line" true (contains out "# best")

let test_dse_shared_db () =
  let out =
    check_ok "dse --shared-db" "dse -w KMeans --minutes 30 --seed 3 --shared-db"
  in
  Alcotest.(check bool) "prints cache stats" true (contains out "# cache:")

let test_dse_trace_and_replay () =
  let trace_file = Filename.temp_file "s2fa_cli" ".jsonl" in
  let out =
    check_ok "dse --trace"
      (Printf.sprintf "dse -w KMeans --minutes 20 --seed 3 --trace %s"
         trace_file)
  in
  Alcotest.(check bool) "notes the trace file" true (contains out "# trace:");
  let ic = open_in trace_file in
  let n = in_channel_length ic in
  let first = input_line ic in
  close_in ic;
  Alcotest.(check bool) "trace file non-empty" true (n > 0);
  Alcotest.(check bool) "JSONL events" true (contains first "\"ev\":");
  (* Feed the trace back through the replay subcommand. *)
  let rep = check_ok "trace" ("trace " ^ trace_file) in
  Sys.remove trace_file;
  List.iter
    (fun section ->
      Alcotest.(check bool) ("report has " ^ section) true
        (contains rep section))
    [ "== trace summary ==";
      "== best-so-far curve";
      "== per-partition core occupancy ==";
      "== per-technique win attribution ==";
      "== entropy-stop timeline ==" ]

let test_trace_rejects_garbage () =
  let bad = Filename.temp_file "s2fa_cli" ".jsonl" in
  write_text bad "not json at all\n";
  check_rejects "garbage" ("trace " ^ bad) [ bad ^ ":1: malformed JSON" ];
  (* Trailing content after a valid event, and a non-integral [seq]. *)
  let core_lost seq =
    Printf.sprintf {|{"seq":%s,"min":0,"ev":"core_lost","core":1,"part":0}|}
      seq
  in
  write_text bad (core_lost "0" ^ "\n" ^ core_lost "1" ^ "junk\n");
  check_rejects "trailing junk" ("trace " ^ bad)
    [ bad ^ ":2: malformed JSON" ];
  write_text bad (core_lost "1.7");
  check_rejects "seq 1.7" ("trace " ^ bad) [ bad ^ ":1:" ];
  (* A line of a trace written while the vocabulary had span events. *)
  write_text bad {|{"seq":0,"min":0,"ev":"span_begin","stage":"parse"}|};
  check_rejects "span_begin" ("trace " ^ bad)
    [ bad ^ ":1: not a trace event" ];
  Sys.remove bad;
  check_rejects_dir "trace DIR" (fun d -> "trace " ^ d)

let test_dse_faults () =
  let out =
    check_ok "dse --faults"
      "dse -w KMeans --minutes 30 --seed 3 --faults crash=0.1,hang=0.05"
  in
  Alcotest.(check bool) "prints fault accounting" true
    (contains out "# faults:")

let test_dse_bad_faults_spec_fails () =
  let code, _ = run "dse -w KMeans --faults crash=2.0" in
  Alcotest.(check bool) "non-zero exit" true (code <> 0)

(* The resilience loop end to end: a faulted DSE writes checkpoints,
   `resume` replays from the file, and the recovered run reports the
   same best line as the uninterrupted one. *)
let test_checkpoint_and_resume () =
  let ck = Filename.temp_file "s2fa_cli" ".ck.jsonl" in
  let args =
    Printf.sprintf
      "dse -w KMeans --minutes 40 --seed 3 --faults crash=0.1,hang=0.05 \
       --checkpoint %s --ck-every 10"
      ck
  in
  let full = check_ok "dse --checkpoint" args in
  Alcotest.(check bool) "notes the checkpoint" true
    (contains full "# checkpoint:");
  Alcotest.(check bool) "checkpoint file written" true (Sys.file_exists ck);
  let resumed = check_ok "resume" ("resume " ^ ck) in
  Sys.remove ck;
  Alcotest.(check bool) "announces the recovery" true
    (contains resumed "# resumed s2fa flow");
  (* Bit-identical final best: the `# best ...` line matches verbatim. *)
  let best_line out =
    String.split_on_char '\n' out
    |> List.find_opt (fun l -> String.length l >= 6 && String.sub l 0 6 = "# best")
  in
  match (best_line full, best_line resumed) with
  | Some a, Some b -> Alcotest.(check string) "same best line" a b
  | _ -> Alcotest.fail "missing best line"

(* A DSE checkpoint interval that is not a finite positive number is a
   usage error naming the flag, and nothing runs: at 0 or -5 the
   snapshot loop would never end, and at nan no snapshot would ever be
   written. *)
let test_dse_rejects_bad_ck_every () =
  let ck = Filename.temp_file "s2fa_cli" ".ck.jsonl" in
  Sys.remove ck;
  List.iter
    (fun v ->
      let code, out =
        run
          (Printf.sprintf
             "dse -w KMeans --minutes 20 --checkpoint %s --ck-every=%s" ck v)
      in
      Alcotest.(check int) (v ^ ": exit code") 124 code;
      Alcotest.(check bool) (v ^ ": names the flag") true
        (contains out "--ck-every");
      Alcotest.(check bool) (v ^ ": no checkpoint") false (Sys.file_exists ck))
    [ "0"; "-5"; "nan" ]

let test_resume_rejects_garbage () =
  let bad = Filename.temp_file "s2fa_cli" ".ck.jsonl" in
  let oc = open_out bad in
  output_string oc "{\"ck\":\"nope\"}\n";
  close_out oc;
  let code, _ = run ("resume " ^ bad) in
  Sys.remove bad;
  Alcotest.(check bool) "non-zero exit" true (code <> 0);
  check_rejects_dir "resume DIR" (fun d -> "resume " ^ d)

(* ---------- malformed checkpoints ---------- *)

(* Checkpoints written by a real run, then corrupted one value at a
   time: [set_value path ~meta:false key v] replaces the value of the
   first ["key":VALUE] in the file with [v]; with [~meta:true] it
   replaces the value of meta entry [key] instead. *)
let fleet_ck () =
  let ck = Filename.temp_file "s2fa_cli" ".fleet.ck" in
  let _ =
    check_ok "serve --checkpoint"
      (Printf.sprintf
         "serve --apps KMeans:400:1,LR:300:2 --horizon 0.5 --seed 7 \
          --checkpoint %s --ck-every-s 2"
         ck)
  in
  ck

let dse_ck () =
  let ck = Filename.temp_file "s2fa_cli" ".dse.ck" in
  let _ =
    check_ok "dse --checkpoint"
      (Printf.sprintf
         "dse -w KMeans --minutes 40 --seed 3 --checkpoint %s --ck-every 10" ck)
  in
  ck

let index_from hay i needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i =
    if i + nl > hl then None
    else if String.sub hay i nl = needle then Some i
    else go (i + 1)
  in
  go i

let set_value path ~meta key v =
  let text = read_file path in
  let anchor, field =
    if meta then (Printf.sprintf "\"k\":\"%s\"" key, "\"v\":")
    else ("", Printf.sprintf "\"%s\":" key)
  in
  match index_from text 0 anchor with
  | None -> Alcotest.failf "%s has no %s" path anchor
  | Some a -> (
    match index_from text a field with
    | None -> Alcotest.failf "%s has no %s" path field
    | Some f ->
      let start = f + String.length field in
      let rec stop i =
        if text.[i] = ',' || text.[i] = '}' then i else stop (i + 1)
      in
      let e = stop start in
      let oc = open_out path in
      output_string oc
        (String.sub text 0 start ^ v
        ^ String.sub text e (String.length text - e));
      close_out oc)

let check_rejected what path needle =
  check_rejects what ("resume " ^ path) [ path; needle ];
  Sys.remove path

(* A header value of the wrong JSON type is a located error, not an
   uncaught exception. *)
let test_resume_bad_fleet_header_value () =
  let ck = fleet_ck () in
  set_value ck ~meta:false "events" "\"x\"";
  check_rejected "events:\"x\"" ck (ck ^ ":1:")

(* Meta values the CLI decodes are checked too, naming the key. *)
let test_resume_bad_meta () =
  let fleet = fleet_ck () in
  set_value fleet ~meta:true "seed" "\"seven\"";
  check_rejected "fleet seed" fleet "\"seed\"";
  let fleet = fleet_ck () in
  set_value fleet ~meta:true "horizon" "\"inf\"";
  check_rejected "fleet horizon" fleet "\"horizon\"";
  let dse = dse_ck () in
  set_value dse ~meta:true "seed" "\"seven\"";
  check_rejected "dse seed" dse "\"seed\"";
  let dse = dse_ck () in
  set_value dse ~meta:true "minutes" "\"forty\"";
  check_rejected "dse minutes" dse "\"minutes\""

(* A time budget that is not a finite positive number fails cleanly
   instead of exiting 0 or never returning: `--minutes` is a usage
   error naming the flag (exit 124), and a checkpoint recording such a
   budget is refused on resume (exit 1), naming the file and the key. *)
let test_rejects_bad_minutes () =
  let bad = [ "0"; "-5"; "nan"; "inf" ] in
  List.iter
    (fun args ->
      let code, out = run ~kill_after:60 args in
      Alcotest.(check int) (args ^ ": exit code") 124 code;
      Alcotest.(check bool) (args ^ ": names the flag") true
        (contains out "--minutes"))
    ([ "dse -w KMeans --minutes=nan";
       "dse -w KMeans --minutes=0";
       "dse -w KMeans --minutes=-5";
       "dse -w KMeans --mode vanilla --minutes=nan";
       "dse -w KMeans --mode vanilla --minutes=inf" ]
    @ List.map (fun v -> "cache -w KMeans --minutes=" ^ v) bad);
  let ck = Filename.temp_file "s2fa_cli" ".vanilla.ck" in
  let _ =
    check_ok "dse --mode vanilla --checkpoint"
      (Printf.sprintf
         "dse -w KMeans --mode vanilla --minutes 120 --seed 3 --checkpoint \
          %s --ck-every 20"
         ck)
  in
  set_value ck ~meta:true "minutes" "\"inf\"";
  let code, out = run ~kill_after:60 ("resume " ^ ck) in
  Sys.remove ck;
  Alcotest.(check int) "resume, minutes inf: exit code" 1 code;
  Alcotest.(check bool) "resume, minutes inf: names the file and key" true
    (contains out
       (ck ^ ": meta \"minutes\": \"inf\" is not a finite positive number"))

(* A trigger the replay never reaches is a located rejection for both
   checkpoint kinds, not a resume that exits 0 unvalidated. *)
let test_resume_unreached_trigger () =
  List.iter
    (fun v ->
      let ck = fleet_ck () in
      set_value ck ~meta:false "events" v;
      check_rejected ("events:" ^ v) ck (ck ^ ":1: resume never reached"))
    [ "99999999"; "-4" ];
  let dse = dse_ck () in
  set_value dse ~meta:false "min" "9999";
  check_rejected "min:9999" dse (dse ^ ":1: resume never reached");
  (* An interval that could never reach a trigger is refused on load,
     as the run core would refuse it. *)
  let dse = dse_ck () in
  set_value dse ~meta:false "every" "\"inf\"";
  check_rejected "every:inf" dse
    (dse ^ ":1: checkpoint interval must be positive")

(* A fleet header that is not valid JSON is rejected where it stands,
   not handed to the DSE reader. *)
let test_resume_garbled_fleet_header () =
  let ck = fleet_ck () in
  set_value ck ~meta:false "events" "6-06";
  check_rejected "events:6-06" ck (ck ^ ":1: malformed JSON")

let test_cache () =
  let out = check_ok "cache" "cache -w KMeans --minutes 30 --seed 3" in
  Alcotest.(check bool) "reports DB equivalence" true
    (contains out "# best design unchanged by the DB: true")

let test_report () =
  let out = check_ok "report" "report -w KMeans" in
  Alcotest.(check bool) "prints a resource row" true (contains out "BRAM")

let test_bad_kernel_fails () =
  let code, _ = run "dse -w NoSuchKernel" in
  Alcotest.(check bool) "non-zero exit" true (code <> 0)

let test_verify_symbolic () =
  let out = check_ok "verify --symbolic" "verify -w KMeans --symbolic" in
  Alcotest.(check bool) "prints proofs" true (contains out "proved");
  Alcotest.(check bool) "nothing refuted" false (contains out "REFUTED")

let test_verify_concrete () =
  let out = check_ok "verify" "verify -w PR" in
  Alcotest.(check bool) "prints ok lines" true
    (contains out "ok (no counterexample)")

let test_verify_needs_target () =
  let code, _ = run "verify" in
  Alcotest.(check bool) "non-zero exit" true (code <> 0)

let test_fuzz_coverage () =
  let out =
    check_ok "fuzz --coverage" "fuzz --coverage --count 10 --seed 3"
  in
  Alcotest.(check bool) "reports the coverage signal" true
    (contains out "coverage:")

let serve_args = "serve --apps KMeans:300,PR:200 --horizon 0.3 --seed 11"

let test_serve () =
  let out = check_ok "serve" serve_args in
  Alcotest.(check bool) "prints a serving report" true
    (contains out "== serving report ==");
  Alcotest.(check bool) "per-app percentiles" true (contains out "p95 ms");
  (* Same seed, same report — byte for byte. *)
  let _, again = run serve_args in
  Alcotest.(check string) "serve is deterministic" out again

let test_serve_trace_and_replay () =
  let trace = Filename.temp_file "s2fa_serve" ".jsonl" in
  let _ = check_ok "serve --trace" (serve_args ^ " --trace " ^ trace) in
  let out = check_ok "trace of a serving run" ("trace " ^ trace) in
  Sys.remove trace;
  Alcotest.(check bool) "serving section present" true
    (contains out "== serving ==")

let test_serve_bad_policy_fails () =
  let code, _ = run "serve --policy nope" in
  Alcotest.(check bool) "non-zero exit" true (code <> 0)

(* A value the fleet refuses exits 1 with the fleet's own message, not
   125 with an uncaught [Fleet_error]. *)
let test_serve_rejects_bad_values () =
  let ck = Filename.temp_file "s2fa_cli" ".ck.jsonl" in
  Sys.remove ck;
  List.iter
    (fun (args, msg) ->
      check_rejects ("serve " ^ args) (serve_args ^ " " ^ args) [ msg ])
    [ ("--devices 0", "need at least one device");
      ("--batch 0", "batch must be >= 1");
      ("--queue-cap 0", "queue capacity must be >= 1");
      ("--hang-factor 0", "hang factor must be > 1");
      ("--hang-factor nan", "hang factor must be > 1");
      ("--slo-ms nan", "deadline offset must be positive and finite");
      ("--slo-ms inf", "deadline offset must be positive and finite");
      ( "--checkpoint " ^ ck ^ " --ck-every-s 0",
        "checkpoint interval must be positive" ) ];
  Alcotest.(check bool) "no checkpoint" false (Sys.file_exists ck)

(* Zero, nan and infinite arrival parameters fail cleanly instead of
   exiting 125 with Traffic's Invalid_argument or never returning: a
   bad --horizon is a usage error naming the flag (exit 124), a bad rate
   or region scale exits 1 naming the item. *)
let test_traffic_rejects_bad_values () =
  let fed = "federate --seed 7" in
  List.iter
    (fun (args, want, needle) ->
      let code, out = run ~kill_after:60 args in
      Alcotest.(check int) (args ^ ": exit code") want code;
      Alcotest.(check bool) (args ^ ": names " ^ needle) true
        (contains out needle))
    [ ("serve --apps KMeans:-3:1", 1, "bad --apps item \"KMeans:-3:1\"");
      ("serve --apps KMeans:nan:1", 1, "bad --apps item \"KMeans:nan:1\"");
      ("serve --apps KMeans:inf:1", 1, "bad --apps item \"KMeans:inf:1\"");
      ("serve --horizon 0", 124, "--horizon");
      ("serve --horizon nan", 124, "--horizon");
      ("serve --horizon inf", 124, "--horizon");
      (fed ^ " --apps KMeans:0", 1, "bad --apps item \"KMeans:0\"");
      (fed ^ " --apps KMeans:inf", 1, "bad --apps item \"KMeans:inf\"");
      (fed ^ " --horizon 0", 124, "--horizon");
      (fed ^ " --horizon nan", 124, "--horizon");
      (fed ^ " --horizon inf", 124, "--horizon");
      (fed ^ " --regions east:0,west", 1, "bad --regions item \"east:0\"");
      (fed ^ " --regions east:nan,west", 1, "bad --regions item \"east:nan\"");
      (fed ^ " --regions east:inf,west", 1, "bad --regions item \"east:inf\"") ]

(* An output path that names a directory or sits in a missing directory,
   and a task or kernel count below 1, fail up front as a usage error
   naming the flag (exit 124), instead of exiting 125 with an uncaught
   Sys_error or Invalid_argument (for --metrics and --profile, after
   the whole run) or exiting 0 with a nan speedup. *)
let test_rejects_bad_paths_and_counts () =
  let dir = Filename.temp_dir "s2fa_cli" ".d" in
  let path_rows p =
    [ ("dse -w KMeans --minutes 20 --trace " ^ p, "--trace");
      ("dse -w KMeans --minutes 20 --profile " ^ p, "--profile");
      ("dse -w KMeans --minutes 40 --ck-every 5 --checkpoint " ^ p,
        "--checkpoint");
      ("serve --horizon 0.3 --trace " ^ p, "--trace");
      ("serve --horizon 0.3 --metrics " ^ p, "--metrics");
      ("serve --horizon 0.3 --profile " ^ p, "--profile");
      ("serve --horizon 0.3 --checkpoint " ^ p, "--checkpoint");
      ("federate --horizon 0.3 --trace " ^ p, "--trace");
      ("federate --horizon 0.3 --profile " ^ p, "--profile");
      ("verify -w KMeans --profile " ^ p, "--profile");
      ("fuzz --count 2 --profile " ^ p, "--profile") ]
  in
  List.iter
    (fun (args, flag) ->
      let code, out = run ~kill_after:60 args in
      Alcotest.(check int) (args ^ ": exit code") 124 code;
      Alcotest.(check bool) (args ^ ": names the flag") true
        (contains out ("option '" ^ flag ^ "'")))
    (path_rows dir
    @ path_rows (Filename.concat dir "missing/out")
    @ [ ("speedup -w KMeans --tasks=-4", "--tasks");
        ("verify -w KMeans --tasks=-4", "--tasks");
        ("speedup -w KMeans --tasks 0", "--tasks");
        ("fuzz --count=-3", "--count") ]);
  Sys.rmdir dir

(* ---------- the span profiler surface ---------- *)

(* Drop the `# profile: ...` footer so profiled and unprofiled stdout
   can be compared byte for byte. *)
let strip_profile_footer out =
  String.split_on_char '\n' out
  |> List.filter (fun l ->
         not (String.length l >= 10 && String.sub l 0 10 = "# profile:"))
  |> String.concat "\n"

let test_dse_profile_reproducible () =
  let p1 = Filename.temp_file "s2fa_prof" ".jsonl" in
  let p2 = Filename.temp_file "s2fa_prof" ".jsonl" in
  let dse = "dse -w KMeans --minutes 30 --seed 3" in
  let out1 =
    check_ok "dse --profile" (Printf.sprintf "%s --profile %s" dse p1)
  in
  let _ = check_ok "dse --profile (again)"
      (Printf.sprintf "%s --profile %s" dse p2)
  in
  Alcotest.(check bool) "footer notes the profile" true
    (contains out1 "# profile:");
  Alcotest.(check string) "span log byte-identical across runs"
    (read_file p1) (read_file p2);
  Alcotest.(check bool) "folded-stack file written" true
    (Sys.file_exists (p1 ^ ".folded"));
  Alcotest.(check bool) "spans are JSON" true
    (contains (read_file p1) "\"path\":");
  (* Zero observer effect: the run without --profile prints exactly the
     same result. *)
  let _, plain = run dse in
  Alcotest.(check string) "results bit-identical without --profile" plain
    (strip_profile_footer out1);
  List.iter Sys.remove [ p1; p1 ^ ".folded"; p2; p2 ^ ".folded" ]

let test_prof_report () =
  let p = Filename.temp_file "s2fa_prof" ".jsonl" in
  let _ =
    check_ok "dse --profile"
      (Printf.sprintf "dse -w KMeans --minutes 30 --seed 3 --profile %s" p)
  in
  let rep = check_ok "prof" ("prof " ^ p) in
  Sys.remove p;
  Sys.remove (p ^ ".folded");
  List.iter
    (fun section ->
      Alcotest.(check bool) ("report has " ^ section) true
        (contains rep section))
    [ "== span tree"; "== per-stage share"; "== top";
      "hls.estimate"; "dse.partition" ]

let test_prof_rejects_garbage () =
  let bad = Filename.temp_file "s2fa_prof" ".jsonl" in
  write_text bad "not a span\n";
  check_rejects "garbage" ("prof " ^ bad) [ bad ^ ":1: malformed JSON" ];
  write_text bad {|{"id":2.5,"parent":-1,"name":"a","vb":0,"ve":1,"path":"a"}|};
  check_rejects "id 2.5" ("prof " ^ bad) [ bad ^ ":1: not a span record" ];
  Sys.remove bad;
  check_rejects_dir "prof DIR" (fun d -> "prof " ^ d)

let test_verify_profile () =
  let p = Filename.temp_file "s2fa_prof" ".jsonl" in
  let _ =
    check_ok "verify --profile"
      (Printf.sprintf "verify -w KMeans --symbolic --profile %s" p)
  in
  let log = read_file p in
  Sys.remove p;
  Sys.remove (p ^ ".folded");
  Alcotest.(check bool) "sym.equiv spans recorded" true
    (contains log "sym.equiv")

let test_trace_stage_share () =
  let trace = Filename.temp_file "s2fa_cli" ".jsonl" in
  let _ =
    check_ok "dse --trace"
      (Printf.sprintf "dse -w KMeans --minutes 30 --seed 3 --trace %s" trace)
  in
  let rep = check_ok "trace" ("trace " ^ trace) in
  Sys.remove trace;
  Alcotest.(check bool) "stage-share summary line" true
    (contains rep "stage share: search evals")

let test_serve_metrics () =
  let m = Filename.temp_file "s2fa_metrics" ".prom" in
  let out = check_ok "serve --metrics" (serve_args ^ " --metrics " ^ m) in
  Alcotest.(check bool) "notes the metrics file" true
    (contains out "# metrics:");
  let prom = read_file m in
  Sys.remove m;
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("exposition has " ^ needle) true
        (contains prom needle))
    [ "# TYPE s2fa_serve_completed counter";
      "# TYPE s2fa_fleet_requests gauge";
      "s2fa_fleet_devices 2" ]

(* ---------- the perf-trajectory gate ---------- *)

let write_traj path results =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"bench\": \"t\",\n  \"unit\": \"ns/run\",\n  \"results\": {\n";
  let n = List.length results in
  List.iteri
    (fun i (k, v) ->
      Printf.fprintf oc "    \"%s\": %.0f%s\n" k v
        (if i = n - 1 then "" else ","))
    results;
  Printf.fprintf oc "  }\n}\n";
  close_out oc

let test_perf_diff_passes () =
  let old_f = Filename.temp_file "perf" ".json" in
  write_traj old_f [ ("a", 100.0); ("b", 2e9) ];
  let out = check_ok "perf diff (identical)"
      (Printf.sprintf "perf diff %s %s" old_f old_f)
  in
  Sys.remove old_f;
  Alcotest.(check bool) "summary line" true
    (contains out "0 regression(s)")

let test_perf_diff_gates_regression () =
  let old_f = Filename.temp_file "perf" ".json" in
  let new_f = Filename.temp_file "perf" ".json" in
  write_traj old_f [ ("a", 100.0); ("b", 100.0) ];
  write_traj new_f [ ("a", 200.0); ("b", 100.0) ];
  let code, out =
    run (Printf.sprintf "perf diff %s %s --threshold 10" old_f new_f)
  in
  Sys.remove old_f;
  Sys.remove new_f;
  Alcotest.(check bool) "non-zero exit" true (code <> 0);
  Alcotest.(check bool) "names the regression" true
    (contains out "REGRESSION a");
  Alcotest.(check bool) "shows +100%" true (contains out "+100%")

let test_perf_diff_rejects_garbage () =
  let bad = Filename.temp_file "perf" ".json" in
  let diff_bad what text needle =
    write_text bad text;
    check_rejects what (Printf.sprintf "perf diff %s %s" bad bad) [ needle ]
  in
  diff_bad "garbage" "nope\n" (bad ^ ":1: malformed JSON");
  (* A duplicate key no longer lets the second value win, and an
     overflowing literal is not read as infinity. *)
  diff_bad "duplicate key"
    {|{"bench":"t","unit":"ns","results":{"a":1,"a":5}}|}
    (bad ^ ":1: malformed JSON");
  diff_bad "1e400"
    "{\n  \"bench\": \"t\",\n  \"unit\": \"ns\",\n  \"results\": {\n\
    \    \"a\": 1e400\n  }\n}\n"
    (bad ^ ":5: malformed JSON");
  diff_bad "missing member" {|{"bench":"t","unit":"ns"}|}
    (bad ^ ":1: bad or missing \"results\"");
  Sys.remove bad;
  check_rejects_dir "perf diff DIR DIR" (fun d ->
      Printf.sprintf "perf diff %s %s" d d)

(* ---------- the bench harness section filter ---------- *)

let bench_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bench/main.exe"

let test_bench_rejects_unknown_section () =
  let out_f = Filename.temp_file "bench" ".out" in
  let code =
    Sys.command (Printf.sprintf "%s NOPE > %s 2>&1" bench_exe out_f)
  in
  let out = read_file out_f in
  Sys.remove out_f;
  Alcotest.(check bool) "non-zero exit" true (code <> 0);
  Alcotest.(check bool) "names the bad tag" true
    (contains out "unknown section NOPE");
  Alcotest.(check bool) "lists the known sections" true
    (contains out "SYM")

(* The paper-figure sections that run the DSE flows (Table 1, Fig. 3,
   the cache table, Table 2, Fig. 4 and the A1-A5 ablations) print
   exactly the committed golden: any change in scheduling, stopping or
   seeding moves a number in it. *)
let test_bench_paper_sections_golden () =
  let golden =
    Filename.concat (Filename.dirname Sys.executable_name)
      "golden/paper_sections.txt"
  in
  let out_f = Filename.temp_file "bench" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s T1 F3 C1 T2 F4 A1 A2 A3 A5 A4 > %s" bench_exe out_f)
  in
  let out = read_file out_f in
  Sys.remove out_f;
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check string) "output matches golden/paper_sections.txt"
    (read_file golden) out

let () =
  Alcotest.run "cli"
    [ ( "smoke",
        [ Alcotest.test_case "list" `Quick test_list;
          Alcotest.test_case "compile" `Quick test_compile;
          Alcotest.test_case "compile --design" `Quick test_compile_with_design;
          Alcotest.test_case "dse" `Quick test_dse;
          Alcotest.test_case "dse --shared-db" `Quick test_dse_shared_db;
          Alcotest.test_case "dse --trace + trace" `Quick
            test_dse_trace_and_replay;
          Alcotest.test_case "trace rejects garbage" `Quick
            test_trace_rejects_garbage;
          Alcotest.test_case "dse --faults" `Quick test_dse_faults;
          Alcotest.test_case "bad --faults spec" `Quick
            test_dse_bad_faults_spec_fails;
          Alcotest.test_case "checkpoint + resume" `Quick
            test_checkpoint_and_resume;
          Alcotest.test_case "dse rejects bad --ck-every" `Quick
            test_dse_rejects_bad_ck_every;
          Alcotest.test_case "bad time budgets rejected" `Quick
            test_rejects_bad_minutes;
          Alcotest.test_case "resume rejects garbage" `Quick
            test_resume_rejects_garbage;
          Alcotest.test_case "resume: bad fleet header value" `Quick
            test_resume_bad_fleet_header_value;
          Alcotest.test_case "resume: bad meta values" `Quick
            test_resume_bad_meta;
          Alcotest.test_case "resume: garbled fleet header" `Quick
            test_resume_garbled_fleet_header;
          Alcotest.test_case "resume: trigger never reached" `Quick
            test_resume_unreached_trigger;
          Alcotest.test_case "cache" `Quick test_cache;
          Alcotest.test_case "report" `Quick test_report;
          Alcotest.test_case "unknown kernel" `Quick test_bad_kernel_fails;
          Alcotest.test_case "verify --symbolic" `Quick test_verify_symbolic;
          Alcotest.test_case "verify (concrete)" `Quick test_verify_concrete;
          Alcotest.test_case "verify needs -w or --all" `Quick
            test_verify_needs_target;
          Alcotest.test_case "fuzz --coverage" `Quick test_fuzz_coverage;
          Alcotest.test_case "serve" `Quick test_serve;
          Alcotest.test_case "serve --trace + trace" `Quick
            test_serve_trace_and_replay;
          Alcotest.test_case "bad policy" `Quick
            test_serve_bad_policy_fails;
          Alcotest.test_case "serve rejects bad values" `Quick
            test_serve_rejects_bad_values;
          Alcotest.test_case "bad arrival parameters rejected" `Quick
            test_traffic_rejects_bad_values;
          Alcotest.test_case "bad output paths and counts rejected" `Quick
            test_rejects_bad_paths_and_counts ] );
      ( "profiling",
        [ Alcotest.test_case "dse --profile reproducible" `Quick
            test_dse_profile_reproducible;
          Alcotest.test_case "prof report" `Quick test_prof_report;
          Alcotest.test_case "prof rejects garbage" `Quick
            test_prof_rejects_garbage;
          Alcotest.test_case "verify --profile" `Quick test_verify_profile;
          Alcotest.test_case "trace stage share" `Quick
            test_trace_stage_share;
          Alcotest.test_case "serve --metrics" `Quick test_serve_metrics ] );
      ( "perf-gate",
        [ Alcotest.test_case "diff passes identical" `Quick
            test_perf_diff_passes;
          Alcotest.test_case "diff gates a 2x regression" `Quick
            test_perf_diff_gates_regression;
          Alcotest.test_case "diff rejects garbage" `Quick
            test_perf_diff_rejects_garbage;
          Alcotest.test_case "bench rejects unknown section" `Quick
            test_bench_rejects_unknown_section;
          Alcotest.test_case "paper sections match golden" `Quick
            test_bench_paper_sections_golden ] ) ]
