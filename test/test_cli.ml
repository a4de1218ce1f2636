(* End-to-end smoke tests of the s2fa command-line tool: each subcommand
   must exit 0 and produce non-empty output. Runs the freshly built
   executable (a dune dependency of this test). *)

(* The CLI is built next to this test's directory; resolve it relative to
   the test binary so the suite works from any working directory. *)
let exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/s2fa_cli.exe"

module Json = S2fa_telemetry.Telemetry.Json

(* Run [exe args], returning (exit_code, stdout). With [kill_after], a
   run still going after that many seconds is killed (exit 137); [env]
   prefixes the command with VAR=VALUE assignments. *)
let run ?kill_after ?(env = "") args =
  let out = Filename.temp_file "s2fa_cli" ".out" in
  let cmd =
    match kill_after with
    | Some s -> Printf.sprintf "timeout -s KILL %d %s" s exe
    | None -> exe
  in
  let code =
    Sys.command (Printf.sprintf "%s %s %s > %s 2>&1" env cmd args out)
  in
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

(* With S2FA_LOGS set, the logs sink prints one line per trace event,
   derived from the same description as the JSONL line:
   "[SEQ] MINm TAG", then KEY=VALUE for each member after "ev", in the
   JSON line's order. *)
let test_logs_follow_the_trace () =
  let trace = Filename.temp_file "s2fa_cli" ".jsonl" in
  let err = Filename.temp_file "s2fa_cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf
         "S2FA_LOGS=debug timeout -s KILL 60 %s dse -w KMeans --minutes 20 \
          --seed 3 --trace %s > /dev/null 2> %s"
         exe trace err)
  in
  let lines path =
    String.split_on_char '\n' (read_file path) |> List.filter (( <> ) "")
  in
  let events = lines trace in
  let logs =
    List.filter
      (fun l ->
        List.exists
          (fun level -> contains l ("[" ^ level ^ "] ["))
          [ "WARNING"; "INFO"; "DEBUG" ])
      (lines err)
  in
  Sys.remove trace;
  Sys.remove err;
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check int) "one log line per event" (List.length events)
    (List.length logs);
  (* The index of [needle] in [hay] at or after [i]. *)
  let rec find hay needle i =
    if i + String.length needle > String.length hay then None
    else if String.sub hay i (String.length needle) = needle then Some i
    else find hay needle (i + 1)
  in
  List.iter2
    (fun event log ->
      let fields = Json.parse_obj event in
      let seq = Json.get_int fields "seq" and tag = Json.get_str fields "ev" in
      let keys =
        List.filter (fun k -> not (List.mem k [ "seq"; "min"; "ev" ]))
          (List.map fst fields)
      in
      let fail () = Alcotest.failf "log line %S\n  for event %S" log event in
      let after_tag =
        match find log (Printf.sprintf "[%6d]" seq) 0 with
        | None -> fail ()
        | Some i -> (
          match find log ("m " ^ tag ^ " ") i with
          | Some j -> j + 2 + String.length tag
          | None -> fail ())
      in
      (* The first key right after the tag, each next one later on. *)
      ignore
        (List.fold_left
           (fun pos k ->
             match find log (" " ^ k ^ "=") pos with
             | Some i when i = pos || pos > after_tag ->
               i + String.length k + 2
             | _ -> fail ())
           after_tag keys))
    events logs

(* Each event kind is logged at one level (Telemetry.log_level): a
   faulted run's stderr holds, per label, exactly the trace's events of
   that level when S2FA_LOGS lets it through, and nothing else; stdout
   is the report, the same at every level as with the variable unset. *)
let test_logs_levels () =
  let trace = Filename.temp_file "s2fa_cli" ".jsonl" in
  let out = Filename.temp_file "s2fa_cli" ".out" in
  let err = Filename.temp_file "s2fa_cli" ".err" in
  let dse env =
    let code =
      Sys.command
        (Printf.sprintf
           "%s timeout -s KILL 60 %s dse -w KMeans --minutes 20 --seed 3 \
            --faults crash=0.1,hang=0.05 --trace %s > %s 2> %s"
           env exe trace out err)
    in
    Alcotest.(check int) (env ^ ": exit code") 0 code;
    (read_file out, read_file err)
  in
  let plain, plain_err = dse "" in
  Alcotest.(check string) "unset: no logs" "" plain_err;
  let events =
    String.split_on_char '\n' (read_file trace)
    |> List.filter (( <> ) "")
    |> List.map (fun l -> Option.get (S2fa_telemetry.Telemetry.event_of_json l))
  in
  let of_level level =
    List.length
      (List.filter
         (fun (e : S2fa_telemetry.Telemetry.event) ->
           S2fa_telemetry.Telemetry.log_level e.S2fa_telemetry.Telemetry.e_kind
           = level)
         events)
  in
  Alcotest.(check bool) "the run logs warnings" true
    (of_level Logs.Warning > 0);
  let labels =
    [ (Logs.App, "APP"); (Logs.Error, "ERROR"); (Logs.Warning, "WARNING");
      (Logs.Info, "INFO"); (Logs.Debug, "DEBUG") ]
  in
  List.iter
    (fun (word, shown) ->
      let stdout, stderr = dse ("S2FA_LOGS=" ^ word) in
      Alcotest.(check string) (word ^ ": stdout as unset") plain stdout;
      let lines = List.filter (( <> ) "") (String.split_on_char '\n' stderr) in
      let labelled =
        List.fold_left
          (fun n (level, label) ->
            let count =
              List.length
                (List.filter (fun l -> contains l ("[" ^ label ^ "] [")) lines)
            in
            Alcotest.(check int)
              (Printf.sprintf "%s: %s lines" word label)
              (if List.mem level shown then of_level level else 0)
              count;
            n + count)
          0 labels
      in
      Alcotest.(check int) (word ^ ": no other stderr") (List.length lines)
        labelled)
    [ ("quiet", []);
      ("app", [ Logs.App ]);
      ("error", [ Logs.App; Logs.Error ]);
      ("warning", [ Logs.App; Logs.Error; Logs.Warning ]);
      ("info", [ Logs.App; Logs.Error; Logs.Warning; Logs.Info ]);
      ( "debug",
        [ Logs.App; Logs.Error; Logs.Warning; Logs.Info; Logs.Debug ] ) ];
  List.iter Sys.remove [ trace; out; err ]

(* S2FA_LOGS=quiet mirrors nothing: the run prints what it prints with
   the variable unset. *)
let test_logs_quiet () =
  let trace = Filename.temp_file "s2fa_cli" ".jsonl" in
  let dse = "dse -w KMeans --minutes 20 --seed 3 --trace " ^ trace in
  let code, quiet = run ~kill_after:60 ~env:"S2FA_LOGS=quiet" dse in
  let _, plain = run ~kill_after:60 dse in
  Sys.remove trace;
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check string) "same output as unset" plain quiet

(* A word that is no log level is a usage error before any work: exit
   124, a message naming the variable and the accepted words, and no
   trace file. *)
let test_logs_unknown_level () =
  let dir = Filename.temp_dir "s2fa_cli" ".d" in
  let trace = Filename.concat dir "t.jsonl" in
  let code, out =
    run ~kill_after:60 ~env:"S2FA_LOGS=bogus"
      ("dse -w KMeans --minutes 20 --seed 3 --trace " ^ trace)
  in
  let written = Sys.file_exists trace in
  if written then Sys.remove trace;
  Sys.rmdir dir;
  Alcotest.(check int) "exit code" 124 code;
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("names " ^ needle) true (contains out needle))
    [ "S2FA_LOGS"; "bogus"; "quiet|app|error|warning|info|debug" ];
  Alcotest.(check bool) "no search ran" false (contains out "# best");
  Alcotest.(check bool) "no trace file" false written

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

(* A loop Merlin will not tile (its counter is read after the loop)
   gets no tiling factor, so the DSE never proposes one: this run used
   to exit 125 with an uncaught Transform_error. *)
let test_dse_untileable_loop () =
  let src = Filename.temp_file "s2fa_cli" ".scala" in
  write_text src
    {|
class WhileSum() extends Accelerator[Array[Int], Int] {
  val id: String = "WhileSum"
  def call(in: Array[Int]): Int = {
    var sum = 0
    var w = 0
    while (w < 16) {
      sum = sum + in(w)
      w = w + 1
    }
    sum + w
  }
}
|};
  let code, out =
    run ~kill_after:120 ("dse -f " ^ src ^ " --minutes 60 --seed 3")
  in
  Sys.remove src;
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "prints a best line" true (contains out "# best ")

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

(* A positive interval however small finishes: past a boundary the
   stepper jumps to the next one instead of walking there an interval
   at a time, which at 1e-9 minutes took longer than the kill timeout.
   The last snapshot still resumes to the uninterrupted best. *)
let test_dse_tiny_ck_every () =
  let best out =
    String.split_on_char '\n' out
    |> List.filter (fun l -> String.starts_with ~prefix:"# best" l)
  in
  List.iter
    (fun v ->
      let ck = Filename.temp_file "s2fa_cli" ".ck.jsonl" in
      let args =
        Printf.sprintf
          "dse -w KMeans --minutes 20 --seed 3 --checkpoint %s --ck-every %s"
          ck v
      in
      let code, full = run ~kill_after:60 args in
      Alcotest.(check int) (args ^ ": exit code") 0 code;
      let code, resumed = run ~kill_after:60 ("resume " ^ ck) in
      Sys.remove ck;
      Alcotest.(check int) (v ^ ": resume exit code") 0 code;
      Alcotest.(check bool) (v ^ ": prints a best line") true
        (best full <> []);
      Alcotest.(check (list string)) (v ^ ": same best line") (best full)
        (best resumed))
    [ "1e-9"; "5e-324" ]

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
   replaces the value of meta entry [key] instead. A string VALUE ends
   at its closing quote, so it may contain commas. *)
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
      let e =
        if text.[start] = '"' then String.index_from text (start + 1) '"' + 1
        else stop start
      in
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

(* Rename meta key [key] of checkpoint [path] to [key ^ "_x"]. *)
let rename_meta_key path key =
  let text = read_file path in
  let anchor = Printf.sprintf "\"k\":\"%s\"" key in
  match index_from text 0 anchor with
  | None -> Alcotest.failf "%s has no %s" path anchor
  | Some a ->
    let e = a + String.length anchor - 1 in
    write_text path
      (String.sub text 0 e ^ "_x" ^ String.sub text e (String.length text - e))

(* Meta values are decoded by the converter of the flag that wrote them,
   and a key the writer always emits must be there: either failure
   names the file and the key. *)
let test_resume_bad_meta () =
  (* A serve that records hedging and a fault spec in its meta. *)
  let armed_ck () =
    let ck = Filename.temp_file "s2fa_cli" ".fleet.ck" in
    let _ =
      check_ok "armed serve --checkpoint"
        (Printf.sprintf
           "serve --apps KMeans:400:1,LR:300:2 --horizon 0.5 --seed 7 \
            --hang-factor 3 --hedge --faults hang=0.2 --checkpoint %s \
            --ck-every-s 2"
           ck)
    in
    ck
  in
  List.iter
    (fun (what, make, key, v) ->
      let ck = make () in
      set_value ck ~meta:true key v;
      check_rejected what ck (Printf.sprintf "%s: meta \"%s\"" ck key))
    [ ("fleet seed", fleet_ck, "seed", "\"seven\"");
      ("fleet horizon", fleet_ck, "horizon", "\"inf\"");
      ("fleet hedge", armed_ck, "hedge", "\"yes\"");
      ("fleet apps", fleet_ck, "apps", "\"KMeans:x\"");
      ("fleet policy", fleet_ck, "policy", "\"nope\"");
      ("fleet faults", armed_ck, "faults", "\"crash=3\"");
      ("fleet batch", fleet_ck, "batch", "\"0\"");
      ("fleet queue_cap", fleet_ck, "queue_cap", "\"0\"");
      (* Values that decode but that the fleet refuses up front. *)
      ("fleet devices", fleet_ck, "devices", "\"0\"");
      ("fleet hang_factor", armed_ck, "hang_factor", "\"0.5\"");
      ("dse seed", dse_ck, "seed", "\"seven\"");
      ("dse minutes", dse_ck, "minutes", "\"forty\"") ];
  List.iter
    (fun (what, make, key) ->
      let ck = make () in
      rename_meta_key ck key;
      check_rejected what ck (Printf.sprintf "%s: meta \"%s\": missing" ck key))
    [ ("fleet without batch", fleet_ck, "batch");
      ("dse without workload", dse_ck, "workload") ]

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
      ("--hang-factor 0", "hang factor must be > 1");
      ("--hang-factor nan", "hang factor must be > 1");
      ("--slo-ms nan", "deadline offset must be positive and finite");
      ("--slo-ms inf", "deadline offset must be positive and finite");
      ( "--checkpoint " ^ ck ^ " --ck-every-s 0",
        "checkpoint interval must be positive" ) ];
  Alcotest.(check bool) "no checkpoint" false (Sys.file_exists ck)

(* Zero, nan and infinite arrival parameters fail cleanly instead of
   exiting 125 with Traffic's Invalid_argument or never returning: a
   bad --horizon, rate or region scale is a usage error (exit 124)
   naming the flag, and for a rate or scale also the item. *)
let test_traffic_rejects_bad_values () =
  let fed = "federate --seed 7" in
  List.iter
    (fun (args, needles) ->
      let code, out = run ~kill_after:60 args in
      Alcotest.(check int) (args ^ ": exit code") 124 code;
      List.iter
        (fun needle ->
          Alcotest.(check bool) (args ^ ": names " ^ needle) true
            (contains out needle))
        needles)
    [ ("serve --apps KMeans:-3:1", [ "--apps"; "\"KMeans:-3:1\"" ]);
      ("serve --apps KMeans:nan:1", [ "--apps"; "\"KMeans:nan:1\"" ]);
      ("serve --apps KMeans:inf:1", [ "--apps"; "\"KMeans:inf:1\"" ]);
      ("serve --horizon 0", [ "--horizon" ]);
      ("serve --horizon nan", [ "--horizon" ]);
      ("serve --horizon inf", [ "--horizon" ]);
      (fed ^ " --apps KMeans:0", [ "--apps"; "\"KMeans:0\"" ]);
      (fed ^ " --apps KMeans:inf", [ "--apps"; "\"KMeans:inf\"" ]);
      (fed ^ " --horizon 0", [ "--horizon" ]);
      (fed ^ " --horizon nan", [ "--horizon" ]);
      (fed ^ " --horizon inf", [ "--horizon" ]);
      (fed ^ " --regions east:0,west", [ "--regions"; "\"east:0\"" ]);
      (fed ^ " --regions east:nan,west", [ "--regions"; "\"east:nan\"" ]);
      (fed ^ " --regions east:inf,west", [ "--regions"; "\"east:inf\"" ]);
      (* Request ids hold the region index in bits 40 and up: past 8 192
         regions they would reach 2^53, which no trace reader holds. *)
      ( fed ^ " --regions "
        ^ String.concat "," (List.init 8193 (Printf.sprintf "r%d")),
        [ "--regions"; "8193 regions, at most 8192" ] ) ]

(* An output path that names a directory or sits in a missing directory,
   and a task or kernel count below 1, fail up front as a usage error
   naming the flag (exit 124), instead of exiting 125 with an uncaught
   Sys_error or Invalid_argument (for --metrics and --profile, after
   the whole run) or exiting 0 with a nan speedup. *)
let test_rejects_bad_paths_and_counts () =
  let dir = Filename.temp_dir "s2fa_cli" ".d" in
  let prof = Filename.concat dir "x.prof" in
  Sys.mkdir (prof ^ ".folded") 0o755;
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
    (* --profile FILE also writes FILE.folded, here a directory. *)
    @ List.filter (fun (_, flag) -> flag = "--profile") (path_rows prof)
    @ [ ("speedup -w KMeans --tasks=-4", "--tasks");
        ("verify -w KMeans --tasks=-4", "--tasks");
        ("speedup -w KMeans --tasks 0", "--tasks");
        ("fuzz --count=-3", "--count") ]);
  Alcotest.(check bool) "no profile written" false (Sys.file_exists prof);
  Sys.rmdir (prof ^ ".folded");
  Sys.rmdir dir

(* Every value flag of every subcommand, given each value of 0, -1, nan,
   inf, garbage and (for a path) a directory that it does not accept.
   Every row exits 124 naming the flag, or exits 1 with the message of
   the library that refuses the value; none exits 0 or 125, and none is
   still running at the kill timeout. *)
let test_every_flag_rejects_bad_values () =
  let dir = Filename.temp_dir "s2fa_cli" ".d" in
  let ck = Filename.concat dir "x.ck" in
  let spans = Filename.concat dir "p.jsonl" in
  write_text spans {|{"id":0,"parent":-1,"name":"a","vb":0,"ve":1,"path":"a"}|};
  let junk = Filename.concat dir "junk.scala" in
  write_text junk "# not MiniScala\n";
  (* [opt cmd flag values]: [cmd --flag=V] for each V, or with [~item]
     [cmd --flag=(item V)]; [~lib] lists the values a library refuses,
     with its message. *)
  let opt ?(item = Fun.id) ?(lib = ([], "")) cmd flag values =
    List.map
      (fun v ->
        let args = Printf.sprintf "%s %s=%s" cmd flag (item v) in
        if List.mem v (fst lib) then (args, 1, snd lib)
        else (args, 124, "option '" ^ flag ^ "'"))
      values
  in
  (* A positional file: a missing one is a usage error naming the
     argument, and a directory is rejected by the reader, naming it. *)
  let pos name args_of =
    List.map (fun v -> (args_of v, 124, name ^ " argument")) [ "0"; "nan"; "x" ]
    @ [ (args_of dir, 1, dir ^ ": ") ]
  in
  let all = [ "0"; "-1"; "nan"; "inf"; "x" ] in
  let not_int = [ "nan"; "inf"; "x" ] in
  (* -w and -f; a source the compiler rejects names the file. *)
  let kernel cmd =
    opt cmd "--workload" all
    @ opt cmd "--file" (dir :: junk :: all) ~lib:([ junk ], junk ^ ": ")
  in
  let dse = "dse -w KMeans --minutes 20" and srv = "serve --horizon 0.3" in
  let fed = "federate --horizon 0.3" in
  (* A tenant weight is the fleet's to refuse, in both commands. *)
  let weight cmd =
    let item v = "KMeans:100:" ^ v in
    opt cmd "--apps" [ "0"; "-1"; "x" ] ~item
      ~lib:([ "0"; "-1" ], "weight must be positive")
    @ opt cmd "--apps" [ "nan"; "inf" ] ~item
        ~lib:([ "nan"; "inf" ], "weight must be finite")
  in
  let rows =
    List.concat
      [ kernel "compile";
        opt "compile -w KMeans" "--design" all;
        kernel "echo";
        kernel "bytecode";
        kernel "dse --minutes 20";
        opt dse "--mode" all;
        opt dse "--seed" not_int;
        opt dse "--minutes" all;
        opt dse "--faults" all;
        opt dse "--ck-every" all;
        opt dse "--trace" [ dir ];
        opt dse "--checkpoint" [ dir ];
        opt dse "--profile" [ dir ];
        pos "CHECKPOINT" (fun v -> "resume -- " ^ v);
        pos "TRACE" (fun v -> "trace -- " ^ v);
        kernel "cache --minutes 20";
        opt "cache -w KMeans" "--seed" not_int;
        opt "cache -w KMeans" "--minutes" all;
        kernel "report";
        opt "report -w KMeans" "--seed" not_int;
        opt "speedup" "--workload" all;
        opt "speedup -w KMeans" "--seed" not_int;
        opt "speedup -w KMeans" "--tasks" all;
        opt "verify" "--workload" all;
        opt "verify -w KMeans" "--chains" [ "-1"; "nan"; "inf"; "x" ];
        opt "verify -w KMeans" "--seed" not_int;
        opt "verify -w KMeans" "--tasks" all;
        opt "verify -w KMeans" "--profile" [ dir ];
        opt "fuzz --count 2" "--seed" not_int;
        opt "fuzz" "--count" all;
        opt "fuzz --count 2" "--profile" [ dir ];
        opt srv "--apps" all;
        opt srv "--apps" all ~item:(fun v -> "KMeans:" ^ v);
        weight srv;
        opt srv "--policy" all;
        opt srv "--devices" all
          ~lib:([ "0"; "-1" ], "need at least one device");
        opt srv "--seed" not_int;
        opt srv "--horizon" all;
        opt srv "--batch" all;
        opt srv "--queue-cap" all;
        opt srv "--faults" all;
        opt srv "--trace" [ dir ];
        opt srv "--metrics" [ dir ];
        opt srv "--checkpoint" [ dir ];
        opt srv "--profile" [ dir ];
        opt srv "--slo-ms" all
          ~lib:
            ( [ "0"; "-1"; "nan"; "inf" ],
              "deadline offset must be positive and finite" );
        opt srv "--hang-factor" [ "0"; "-1"; "nan"; "x" ]
          ~lib:([ "0"; "-1"; "nan" ], "hang factor must be > 1");
        opt (srv ^ " --breaker") "--breaker-failures" all
          ~lib:([ "0"; "-1" ], "breaker failure threshold must be >= 1");
        opt (srv ^ " --breaker") "--breaker-cooldown-s" all
          ~lib:
            ( [ "0"; "-1"; "nan"; "inf" ],
              "breaker cooldown must be positive and finite" );
        opt (srv ^ " --breaker") "--breaker-probes" all
          ~lib:([ "0"; "-1" ], "breaker probe count must be >= 1");
        opt (srv ^ " --checkpoint " ^ ck) "--ck-every-s" all
          ~lib:([ "0"; "-1" ], "checkpoint interval must be positive");
        opt fed "--apps" all;
        opt fed "--apps" all ~item:(fun v -> "KMeans:" ^ v);
        weight fed;
        opt fed "--clusters" all
          ~item:(fun v -> "east:" ^ v ^ ",west")
          ~lib:([ "0"; "-1" ], "cluster east needs at least one device");
        opt fed "--regions" all ~item:(fun v -> "east:" ^ v ^ ",west");
        opt fed "--route" all;
        opt fed "--rtt-ms" [ "-1"; "nan"; "inf"; "x" ]
          ~lib:
            ( [ "-1"; "nan"; "inf" ],
              "cluster east RTT must be non-negative and finite" );
        opt fed "--seed" not_int;
        opt fed "--horizon" all;
        opt fed "--slo-ms" all
          ~lib:
            ( [ "0"; "-1"; "nan"; "inf" ],
              "deadline offset must be positive and finite" );
        opt (fed ^ " --autoscale") "--scale-max" all
          ~lib:([ "0"; "-1" ], "autoscale max_devices");
        opt (fed ^ " --autoscale") "--scale-interval-s" all
          ~lib:
            ( [ "0"; "-1"; "nan"; "inf" ],
              "autoscale interval must be positive and finite" );
        opt fed "--retune-slo-ms" all
          ~lib:
            ( [ "0"; "-1"; "nan"; "inf" ],
              "retune p99 SLO must be positive and finite" );
        opt (fed ^ " --retune-slo-ms 50") "--retune-epoch-s" all
          ~lib:
            ( [ "0"; "-1"; "nan"; "inf" ],
              "retune epoch must be positive and finite" );
        opt fed "--trace" [ dir ];
        opt fed "--profile" [ dir ];
        opt "chaos" "--seeds" all;
        opt "chaos --seeds 1" "--from" not_int;
        pos "PROFILE" (fun v -> "prof -- " ^ v);
        opt ("prof " ^ spans) "--top" [ "-1"; "nan"; "inf"; "x" ] ]
  in
  List.iter
    (fun (args, want, needle) ->
      let code, out = run ~kill_after:60 args in
      Alcotest.(check int) (args ^ ": exit code") want code;
      Alcotest.(check bool) (args ^ ": names " ^ needle) true
        (contains out needle))
    rows;
  Alcotest.(check bool) "no checkpoint written" false (Sys.file_exists ck);
  List.iter Sys.remove [ spans; junk ];
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

(* The exposition is the printed report in numbers: each headline gauge
   and one [s2fa_fleet_app_requests] sample per app row carry the
   report's values, and --metrics adds only its own line to stdout. *)
let test_serve_metrics () =
  let m = Filename.temp_file "s2fa_metrics" ".prom" in
  let out = check_ok "serve --metrics" (serve_args ^ " --metrics " ^ m) in
  let prom = String.split_on_char '\n' (read_file m) in
  Sys.remove m;
  let _, plain = run serve_args in
  Alcotest.(check string) "stdout is plain serve's plus the metrics line"
    (plain ^ "# metrics: " ^ m ^ "\n")
    out;
  let sample name =
    match
      List.find_map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ k; v ] when k = name -> Some v
          | _ -> None)
        prom
    with
    | Some v -> v
    | None -> Alcotest.failf "no %s sample" name
  in
  let gauge name v =
    Alcotest.(check string) name (string_of_int v) (sample name)
  in
  let report = String.split_on_char '\n' plain in
  let line prefix =
    List.find (fun l -> String.starts_with ~prefix l) report
  in
  Scanf.sscanf (line "policy ") "policy %_s@, %d devices %_s@)), %d requests"
    (fun devices requests ->
      gauge "s2fa_fleet_devices" devices;
      gauge "s2fa_fleet_requests" requests);
  Scanf.sscanf (line "completed ")
    "completed %_d: %_d accelerated in %d batches, %d jvm fallback"
    (fun batches fallbacks ->
      gauge "s2fa_fleet_batches" batches;
      gauge "s2fa_fleet_fallbacks" fallbacks);
  Scanf.sscanf (line "reconfigurations ") "reconfigurations %d,"
    (gauge "s2fa_fleet_reconfigs");
  (* The per-app rows sit between the table header and "fairness:". *)
  let rec app_rows = function
    | l :: rest when String.starts_with ~prefix:"  app " l ->
      List.filter (fun l -> String.starts_with ~prefix:"  " l) rest
    | _ :: rest -> app_rows rest
    | [] -> []
  in
  let rows = app_rows report in
  Alcotest.(check int) "two app rows" 2 (List.length rows);
  List.iter
    (fun row ->
      Scanf.sscanf row " %s %_f %d" (fun app reqs ->
          gauge (Printf.sprintf "s2fa_fleet_app_requests{app=\"%s\"}" app)
            reqs))
    rows;
  Alcotest.(check int) "one app_requests sample per app row"
    (List.length rows)
    (List.length
       (List.filter
          (String.starts_with ~prefix:"s2fa_fleet_app_requests{")
          prom))

(* ---------- the bench harness: section filter and goldens ---------- *)

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

(* The committed golden [name], read from the test directory under
   [dune runtest] and from the source tree under [dune exec]. *)
let golden name =
  let dir =
    if Sys.file_exists "golden" && Sys.is_directory "golden" then "golden"
    else Filename.concat "test" "golden"
  in
  Filename.concat dir name

(* The first line where [got] differs from [want], numbered from 1. *)
let first_difference want got =
  let rec go i = function
    | w :: ws, g :: gs -> if w = g then go (i + 1) (ws, gs) else Some (i, w, g)
    | [], [] -> None
    | w :: _, [] -> Some (i, w, "<end of output>")
    | [], g :: _ -> Some (i, "<end of golden>", g)
  in
  go 1 (String.split_on_char '\n' want, String.split_on_char '\n' got)

(* [bench/main.exe TAGS] prints exactly the golden [name], or rewrites
   it under [S2FA_UPDATE_GOLDEN=1]. A mismatch quotes the first
   differing line. Returns the output. *)
let check_bench_golden name tags =
  let out_f = Filename.temp_file "bench" ".out" in
  let code = Sys.command (Printf.sprintf "%s %s > %s" bench_exe tags out_f) in
  let out = read_file out_f in
  Sys.remove out_f;
  Alcotest.(check int) "exit code" 0 code;
  let path = golden name in
  if Sys.getenv_opt "S2FA_UPDATE_GOLDEN" = Some "1" then write_text path out
  else begin
    match first_difference (read_file path) out with
    | None -> ()
    | Some (i, w, g) ->
      Alcotest.failf "%s:%d differs\n  golden: %s\n  actual: %s" path i w g
  end;
  out

(* The paper-figure sections that run the DSE flows (Table 1, Fig. 3,
   the cache table, Table 2, Fig. 4 and the A1-A5 ablations) print
   exactly the committed golden: any change in scheduling, stopping or
   seeding moves a number in it. *)
let test_bench_paper_sections_golden () =
  ignore
    (check_bench_golden "paper_sections.txt" "T1 F3 C1 T2 F4 A1 A2 A3 A5 A4")

(* The work-count sections print every span call and Obs counter of
   each row: one more HLS estimate, C evaluator run or JVM instruction
   on a path they cover moves a line. *)
let test_bench_work_golden () =
  let out =
    check_bench_golden "bench_work.txt"
      "BENCH TRACE FAULT SERVE CHAOS FLEET_EVENT FEDERATION SYM"
  in
  (* The zero-work checks: tracing into any sink, or a zero-rate fault
     injector, does exactly the work of the plain run. *)
  let rows row =
    List.filter_map
      (fun l ->
        match List.filter (( <> ) "") (String.split_on_char ' ' l) with
        | r :: counts when r = row -> Some (String.concat " " counts)
        | _ -> None)
      (String.split_on_char '\n' out)
  in
  List.iter
    (fun (plain, observed) ->
      Alcotest.(check bool) (plain ^ " has rows") true (rows plain <> []);
      List.iter
        (fun row ->
          Alcotest.(check (list string)) (row ^ " = " ^ plain) (rows plain)
            (rows row))
        observed)
    [ ( "telemetry.disabled",
        [ "telemetry.collector"; "telemetry.jsonl"; "telemetry.no-sinks" ] );
      ("faults.off", [ "faults.zero-rate" ]) ]

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
          Alcotest.test_case "S2FA_LOGS follows the trace" `Quick
            test_logs_follow_the_trace;
          Alcotest.test_case "S2FA_LOGS levels filter, on stderr" `Quick
            test_logs_levels;
          Alcotest.test_case "S2FA_LOGS=quiet adds no logs" `Quick
            test_logs_quiet;
          Alcotest.test_case "S2FA_LOGS rejects an unknown level" `Quick
            test_logs_unknown_level;
          Alcotest.test_case "trace rejects garbage" `Quick
            test_trace_rejects_garbage;
          Alcotest.test_case "dse -f with an untileable loop" `Quick
            test_dse_untileable_loop;
          Alcotest.test_case "dse --faults" `Quick test_dse_faults;
          Alcotest.test_case "bad --faults spec" `Quick
            test_dse_bad_faults_spec_fails;
          Alcotest.test_case "checkpoint + resume" `Quick
            test_checkpoint_and_resume;
          Alcotest.test_case "dse rejects bad --ck-every" `Quick
            test_dse_rejects_bad_ck_every;
          Alcotest.test_case "dse tiny --ck-every finishes" `Quick
            test_dse_tiny_ck_every;
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
            test_rejects_bad_paths_and_counts;
          Alcotest.test_case "every flag rejects bad values" `Quick
            test_every_flag_rejects_bad_values ] );
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
        [ Alcotest.test_case "bench rejects unknown section" `Quick
            test_bench_rejects_unknown_section;
          Alcotest.test_case "paper sections match golden" `Quick
            test_bench_paper_sections_golden;
          Alcotest.test_case "work counts match golden" `Quick
            test_bench_work_golden ] ) ]
