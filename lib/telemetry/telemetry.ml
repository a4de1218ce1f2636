(* Virtual-clock telemetry: all timestamps are simulated minutes plus a
   monotonic sequence number, never the wall clock, so traces under a
   fixed RNG seed are byte-reproducible. *)

type stop_reason = Stop_time | Stop_exhausted | Stop_entropy | Stop_trivial

let stop_reason_name = function
  | Stop_time -> "time_limit"
  | Stop_exhausted -> "exhausted"
  | Stop_entropy -> "entropy"
  | Stop_trivial -> "trivial"

let stop_reason_of_name = function
  | "time_limit" -> Some Stop_time
  | "exhausted" -> Some Stop_exhausted
  | "entropy" -> Some Stop_entropy
  | "trivial" -> Some Stop_trivial
  | _ -> None

type kind =
  | Run_begin of { flow : string; cores : int; time_limit : float }
  | Run_end of { minutes : float; evals : int; best : float }
  | Eval_start of { cfg_key : string; partition : int; technique : string }
  | Eval_done of {
      cfg_key : string;
      quality : float;
      feasible : bool;
      eval_minutes : float;
      cache_hit : bool;
      partition : int;
      technique : string;
      improved : bool;
    }
  | Bandit_select of { arm : int; technique : string; scores : float array }
  | Partition_start of {
      partition : int;
      core : int;
      constrs : string;
      points : float;
    }
  | Partition_stop of {
      partition : int;
      core : int;
      reason : stop_reason;
      evals : int;
    }
  | Entropy_sample of { partition : int; evaluated : int; entropy : float }
  | Seed_injected of { cfg_key : string; partition : int }
  | Fault_injected of {
      cfg_key : string;
      partition : int;
      failure : string;
      lost_minutes : float;
      attempt : int;
    }
  | Eval_retry of {
      cfg_key : string;
      partition : int;
      attempt : int;
      backoff_minutes : float;
    }
  | Quarantined of {
      cfg_key : string;
      partition : int;
      attempts : int;
      lost_minutes : float;
    }
  | Core_lost of { core : int; partition : int }
  | Failover of { partition : int; from_core : int; to_core : int }
  | Checkpoint_written of { path : string; minutes : float; evals : int }
  | Serve_enqueue of { app : string; request : int; queue_len : int }
  | Serve_batch of {
      app : string;
      device : int;
      size : int;
      service_minutes : float;
    }
  | Serve_reconfig of {
      device : int;
      from_app : string;
      to_app : string;
      minutes : float;
    }
  | Serve_fallback of { app : string; request : int; reason : string }
  | Serve_complete of {
      app : string;
      request : int;
      latency_minutes : float;
      accelerated : bool;
    }
  | Serve_shed of {
      app : string;
      request : int;
      stage : string;  (* "enqueue" | "dispatch" *)
      deadline_minutes : float;
      estimate_minutes : float;
    }
  | Serve_timeout of {
      app : string;
      device : int;
      size : int;
      waited_minutes : float;
    }
  | Serve_hedge of {
      app : string;
      from_device : int;
      to_device : int;
      size : int;
    }
  | Serve_breaker of { device : int; from_state : string; to_state : string }
  | Serve_deadline of {
      app : string;
      request : int;
      met : bool;
      slack_minutes : float;
    }
  | Fed_route of {
      app : string;
      request : int;
      region : int;
      cluster : string;
      rtt_minutes : float;
    }
  | Fed_autoscale of {
      cluster : string;
      action : string;
      devices : int;
      queue_len : int;
    }
  | Fed_retune of {
      app : string;
      epoch : int;
      p99_minutes : float;
      slo_minutes : float;
      tune_minutes : float;
      evals : int;
    }
  | Fed_promote of { app : string; epoch : int; cfg : string }

type event = { e_seq : int; e_minutes : float; e_kind : kind }

type sink = { on_event : event -> unit; on_flush : unit -> unit }

(* ------------------------------------------------------------------ *)
(* The tracer *)
(* ------------------------------------------------------------------ *)

type t = {
  sinks : sink list;
  mutable t_clock : float;
  mutable t_seq : int;
  mutable t_partition : int;
}

let create ?(sinks = []) () =
  { sinks; t_clock = 0.0; t_seq = 0; t_partition = -1 }

let set_clock t m = t.t_clock <- m

let set_partition t p = t.t_partition <- p

let partition t = t.t_partition

let emitted t = t.t_seq

let emit t kind =
  let ev = { e_seq = t.t_seq; e_minutes = t.t_clock; e_kind = kind } in
  t.t_seq <- t.t_seq + 1;
  List.iter (fun s -> s.on_event ev) t.sinks

let flush t = List.iter (fun s -> s.on_flush ()) t.sinks

(* ------------------------------------------------------------------ *)
(* The project's JSON codec: one writer holding the float round-trip
   contract, one strict parser, and the file readers that locate every
   rejection. *)
(* ------------------------------------------------------------------ *)

module Json = struct
  (* 17 significant digits round-trip every IEEE double exactly; the
     non-finite values JSON cannot express are quoted strings that
     [float_of_string] maps back bit-exactly. *)
  let fstr x =
    if Float.is_nan x then "\"nan\""
    else if x = infinity then "\"inf\""
    else if x = neg_infinity then "\"-inf\""
    else Printf.sprintf "%.17g" x

  let add_quoted b s =
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 32 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  let quote s =
    let b = Buffer.create (String.length s + 2) in
    add_quoted b s;
    Buffer.contents b

  (* ---------- the writer ---------- *)

  type field =
    | Str of string
    | Int of int
    | Num of float
    | Bool of bool
    | Nums of float list

  let add_field b = function
    | Str s -> add_quoted b s
    | Int i -> Buffer.add_string b (string_of_int i)
    | Num x -> Buffer.add_string b (fstr x)
    | Bool v -> Buffer.add_string b (string_of_bool v)
    | Nums xs ->
      Buffer.add_string b ("[" ^ String.concat "," (List.map fstr xs) ^ "]")

  let obj members =
    let b = Buffer.create 160 in
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        add_quoted b k;
        Buffer.add_char b ':';
        add_field b v)
      members;
    Buffer.add_char b '}';
    Buffer.contents b

  (* ---------- the parser ---------- *)

  type v =
    | Jstr of string
    | Jnum of float
    | Jbool of bool
    | Jarr of float list

  exception Bad

  (* Every malformed value raises [Bad], never [Failure], so readers
     need one handler. *)
  let float_of s =
    match float_of_string_opt s with Some f -> f | None -> raise Bad

  (* One flat object with nothing but whitespace around it. A nested
     object, a duplicate key, a trailing comma and a number literal
     outside the double range are malformed. *)
  let parse_obj src =
    let n = String.length src in
    let pos = ref 0 in
    let peek () = if !pos >= n then raise Bad else src.[!pos] in
    let advance () = incr pos in
    let rec skip_ws () =
      if !pos < n then
        match src.[!pos] with
        | ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws ()
        | _ -> ()
    in
    let expect c = skip_ws (); if peek () <> c then raise Bad; advance () in
    let literal word v =
      let l = String.length word in
      if !pos + l > n || String.sub src !pos l <> word then raise Bad;
      pos := !pos + l;
      v
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        let c = peek () in
        advance ();
        if c = '"' then Buffer.contents b
        else if c = '\\' then begin
          let e = peek () in
          advance ();
          (match e with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
            if !pos + 4 > n then raise Bad;
            let code =
              match int_of_string_opt ("0x" ^ String.sub src !pos 4) with
              | Some c -> c
              | None -> raise Bad
            in
            pos := !pos + 4;
            if code > 255 then raise Bad;
            Buffer.add_char b (Char.chr code)
          | _ -> raise Bad);
          go ()
        end
        else begin
          Buffer.add_char b c;
          go ()
        end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let num_char c =
        (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e'
        || c = 'E'
      in
      while !pos < n && num_char src.[!pos] do advance () done;
      if !pos = start then raise Bad;
      let f = float_of (String.sub src start (!pos - start)) in
      if Float.is_finite f then f else raise Bad
    in
    (* After an element: [true] when another follows, [false] at
       [close]. *)
    let next close =
      skip_ws ();
      match peek () with
      | ',' -> advance (); true
      | c when c = close -> advance (); false
      | _ -> raise Bad
    in
    let parse_value () =
      skip_ws ();
      match peek () with
      (* Quoted non-finite floats come back as strings; callers that
         expect a float coerce via [get_float]. *)
      | '"' -> Jstr (parse_string ())
      | 't' -> literal "true" (Jbool true)
      | 'f' -> literal "false" (Jbool false)
      | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin advance (); Jarr [] end
        else begin
          let rec go acc =
            skip_ws ();
            let v =
              if peek () = '"' then float_of (parse_string ())
              else parse_number ()
            in
            if next ']' then go (v :: acc) else List.rev (v :: acc)
          in
          Jarr (go [])
        end
      | _ -> Jnum (parse_number ())
    in
    let parse_members () =
      expect '{';
      skip_ws ();
      if peek () = '}' then begin advance (); [] end
      else begin
        let rec go acc =
          let k = parse_string () in
          if List.mem_assoc k acc then raise Bad;
          expect ':';
          let acc = (k, parse_value ()) :: acc in
          if next '}' then go acc else List.rev acc
        in
        go []
      end
    in
    let fields = parse_members () in
    skip_ws ();
    if !pos < n then raise Bad;
    fields

  let find fields k = List.assoc_opt k fields

  let get_float fields k =
    match find fields k with
    | Some (Jnum f) -> f
    | Some (Jstr s) -> float_of s
    | _ -> raise Bad

  (* Integral and below 2^53, where a double holds every integer: an
     integer field never rounds or truncates. *)
  let get_int fields k =
    let f = get_float fields k in
    if Float.is_integer f && Float.abs f < 0x1p53 then int_of_float f
    else raise Bad

  let get_str fields k =
    match find fields k with Some (Jstr s) -> s | _ -> raise Bad

  let get_bool fields k =
    match find fields k with Some (Jbool b) -> b | _ -> raise Bad

  let get_arr fields k =
    match find fields k with Some (Jarr l) -> l | _ -> raise Bad

  (* ---------- located reading ---------- *)

  exception Bad_line of int * string

  let bad_line n fmt = Printf.ksprintf (fun m -> raise (Bad_line (n, m))) fmt

  let parse_at n line =
    try parse_obj line with Bad -> bad_line n "malformed JSON"

  let get_at n get fields k =
    try get fields k with Bad -> bad_line n "bad or missing %S" k

  let located ~file f =
    try Ok (f ())
    with Bad_line (n, m) -> Error (Printf.sprintf "%s:%d: %s" file n m)

  (* [Sys_error] from opening a file already starts with its path; one
     from reading it (a directory, say) does not. *)
  let read_file path =
    match In_channel.with_open_bin path In_channel.input_all with
    | src -> Ok src
    | exception Sys_error m ->
      if String.starts_with ~prefix:(path ^ ": ") m then Error m
      else Error (Printf.sprintf "%s: %s" path m)

  let decode_lines ~file lines decode =
    located ~file @@ fun () ->
    List.mapi (fun i l -> (i + 1, l)) lines
    |> List.filter_map (fun (n, l) ->
           if String.trim l = "" then None else Some (decode n (parse_at n l)))

  let read_jsonl path decode =
    Result.bind (read_file path) @@ fun src ->
    decode_lines ~file:path (String.split_on_char '\n' src) decode
end

(* ------------------------------------------------------------------ *)
(* Serialization: each kind's wire tag and fields, in wire order. The
   JSONL encoder and the log printer fold over [describe];
   [event_of_fields] is its inverse. *)
(* ------------------------------------------------------------------ *)

let describe =
  let open Json in
  function
  | Run_begin r ->
    ( "run_begin",
      [ ("flow", Str r.flow); ("cores", Int r.cores);
        ("limit", Num r.time_limit) ] )
  | Run_end r ->
    ( "run_end",
      [ ("minutes", Num r.minutes); ("evals", Int r.evals);
        ("best", Num r.best) ] )
  | Eval_start v ->
    ( "eval_start",
      [ ("cfg", Str v.cfg_key); ("part", Int v.partition);
        ("tech", Str v.technique) ] )
  | Eval_done v ->
    ( "eval_done",
      [ ("cfg", Str v.cfg_key); ("q", Num v.quality);
        ("feas", Bool v.feasible); ("emin", Num v.eval_minutes);
        ("hit", Bool v.cache_hit); ("part", Int v.partition);
        ("tech", Str v.technique); ("imp", Bool v.improved) ] )
  | Bandit_select s ->
    ( "bandit_select",
      [ ("arm", Int s.arm); ("tech", Str s.technique);
        ("scores", Nums (Array.to_list s.scores)) ] )
  | Partition_start p ->
    ( "partition_start",
      [ ("part", Int p.partition); ("core", Int p.core);
        ("constrs", Str p.constrs); ("points", Num p.points) ] )
  | Partition_stop p ->
    ( "partition_stop",
      [ ("part", Int p.partition); ("core", Int p.core);
        ("reason", Str (stop_reason_name p.reason)); ("evals", Int p.evals) ] )
  | Entropy_sample s ->
    ( "entropy_sample",
      [ ("part", Int s.partition); ("evals", Int s.evaluated);
        ("entropy", Num s.entropy) ] )
  | Seed_injected s ->
    ("seed_injected", [ ("cfg", Str s.cfg_key); ("part", Int s.partition) ])
  | Fault_injected f ->
    ( "fault",
      [ ("cfg", Str f.cfg_key); ("part", Int f.partition);
        ("class", Str f.failure); ("lost", Num f.lost_minutes);
        ("attempt", Int f.attempt) ] )
  | Eval_retry r ->
    ( "retry",
      [ ("cfg", Str r.cfg_key); ("part", Int r.partition);
        ("attempt", Int r.attempt); ("backoff", Num r.backoff_minutes) ] )
  | Quarantined q ->
    ( "quarantine",
      [ ("cfg", Str q.cfg_key); ("part", Int q.partition);
        ("attempts", Int q.attempts); ("lost", Num q.lost_minutes) ] )
  | Core_lost c ->
    ("core_lost", [ ("core", Int c.core); ("part", Int c.partition) ])
  | Failover f ->
    ( "failover",
      [ ("part", Int f.partition); ("from", Int f.from_core);
        ("to", Int f.to_core) ] )
  | Checkpoint_written c ->
    ( "checkpoint",
      [ ("path", Str c.path); ("minutes", Num c.minutes);
        ("evals", Int c.evals) ] )
  | Serve_enqueue s ->
    ( "serve_enq",
      [ ("app", Str s.app); ("req", Int s.request);
        ("qlen", Int s.queue_len) ] )
  | Serve_batch s ->
    ( "serve_batch",
      [ ("app", Str s.app); ("dev", Int s.device); ("size", Int s.size);
        ("svc", Num s.service_minutes) ] )
  | Serve_reconfig s ->
    ( "serve_reconfig",
      [ ("dev", Int s.device); ("from", Str s.from_app);
        ("to", Str s.to_app); ("minutes", Num s.minutes) ] )
  | Serve_fallback s ->
    ( "serve_fallback",
      [ ("app", Str s.app); ("req", Int s.request);
        ("reason", Str s.reason) ] )
  | Serve_complete s ->
    ( "serve_done",
      [ ("app", Str s.app); ("req", Int s.request);
        ("lat", Num s.latency_minutes); ("acc", Bool s.accelerated) ] )
  | Serve_shed s ->
    ( "serve_shed",
      [ ("app", Str s.app); ("req", Int s.request); ("stage", Str s.stage);
        ("deadline", Num s.deadline_minutes);
        ("est", Num s.estimate_minutes) ] )
  | Serve_timeout s ->
    ( "serve_timeout",
      [ ("app", Str s.app); ("dev", Int s.device); ("size", Int s.size);
        ("waited", Num s.waited_minutes) ] )
  | Serve_hedge s ->
    ( "serve_hedge",
      [ ("app", Str s.app); ("from", Int s.from_device);
        ("to", Int s.to_device); ("size", Int s.size) ] )
  | Serve_breaker s ->
    ( "serve_breaker",
      [ ("dev", Int s.device); ("from", Str s.from_state);
        ("to", Str s.to_state) ] )
  | Serve_deadline s ->
    ( "serve_deadline",
      [ ("app", Str s.app); ("req", Int s.request); ("met", Bool s.met);
        ("slack", Num s.slack_minutes) ] )
  | Fed_route s ->
    ( "fed_route",
      [ ("app", Str s.app); ("req", Int s.request);
        ("region", Int s.region); ("cluster", Str s.cluster);
        ("rtt", Num s.rtt_minutes) ] )
  | Fed_autoscale s ->
    ( "fed_autoscale",
      [ ("cluster", Str s.cluster); ("action", Str s.action);
        ("devices", Int s.devices); ("queue", Int s.queue_len) ] )
  | Fed_retune s ->
    ( "fed_retune",
      [ ("app", Str s.app); ("epoch", Int s.epoch);
        ("p99", Num s.p99_minutes); ("slo", Num s.slo_minutes);
        ("minutes", Num s.tune_minutes); ("evals", Int s.evals) ] )
  | Fed_promote s ->
    ( "fed_promote",
      [ ("app", Str s.app); ("epoch", Int s.epoch); ("cfg", Str s.cfg) ] )

let json_of_event e =
  let tag, fields = describe e.e_kind in
  Json.obj
    (("seq", Json.Int e.e_seq) :: ("min", Num e.e_minutes) :: ("ev", Str tag)
    :: fields)

let event_of_fields fields =
  let s = Json.get_str fields and i = Json.get_int fields
  and f = Json.get_float fields and b = Json.get_bool fields in
  match
    let kind =
      match s "ev" with
      | "run_begin" ->
        Run_begin { flow = s "flow"; cores = i "cores"; time_limit = f "limit" }
      | "run_end" ->
        Run_end { minutes = f "minutes"; evals = i "evals"; best = f "best" }
      | "eval_start" ->
        Eval_start
          { cfg_key = s "cfg"; partition = i "part"; technique = s "tech" }
      | "eval_done" ->
        Eval_done
          { cfg_key = s "cfg"; quality = f "q"; feasible = b "feas";
            eval_minutes = f "emin"; cache_hit = b "hit"; partition = i "part";
            technique = s "tech"; improved = b "imp" }
      | "bandit_select" ->
        Bandit_select
          { arm = i "arm"; technique = s "tech";
            scores = Array.of_list (Json.get_arr fields "scores") }
      | "partition_start" ->
        Partition_start
          { partition = i "part"; core = i "core"; constrs = s "constrs";
            points = f "points" }
      | "partition_stop" ->
        Partition_stop
          { partition = i "part"; core = i "core";
            reason =
              (match stop_reason_of_name (s "reason") with
              | Some r -> r
              | None -> raise Json.Bad);
            evals = i "evals" }
      | "entropy_sample" ->
        Entropy_sample
          { partition = i "part"; evaluated = i "evals"; entropy = f "entropy" }
      | "seed_injected" ->
        Seed_injected { cfg_key = s "cfg"; partition = i "part" }
      | "fault" ->
        Fault_injected
          { cfg_key = s "cfg"; partition = i "part"; failure = s "class";
            lost_minutes = f "lost"; attempt = i "attempt" }
      | "retry" ->
        Eval_retry
          { cfg_key = s "cfg"; partition = i "part"; attempt = i "attempt";
            backoff_minutes = f "backoff" }
      | "quarantine" ->
        Quarantined
          { cfg_key = s "cfg"; partition = i "part"; attempts = i "attempts";
            lost_minutes = f "lost" }
      | "core_lost" -> Core_lost { core = i "core"; partition = i "part" }
      | "failover" ->
        Failover
          { partition = i "part"; from_core = i "from"; to_core = i "to" }
      | "checkpoint" ->
        Checkpoint_written
          { path = s "path"; minutes = f "minutes"; evals = i "evals" }
      | "serve_enq" ->
        Serve_enqueue
          { app = s "app"; request = i "req"; queue_len = i "qlen" }
      | "serve_batch" ->
        Serve_batch
          { app = s "app"; device = i "dev"; size = i "size";
            service_minutes = f "svc" }
      | "serve_reconfig" ->
        Serve_reconfig
          { device = i "dev"; from_app = s "from"; to_app = s "to";
            minutes = f "minutes" }
      | "serve_fallback" ->
        Serve_fallback { app = s "app"; request = i "req"; reason = s "reason" }
      | "serve_done" ->
        Serve_complete
          { app = s "app"; request = i "req"; latency_minutes = f "lat";
            accelerated = b "acc" }
      | "serve_shed" ->
        Serve_shed
          { app = s "app"; request = i "req"; stage = s "stage";
            deadline_minutes = f "deadline"; estimate_minutes = f "est" }
      | "serve_timeout" ->
        Serve_timeout
          { app = s "app"; device = i "dev"; size = i "size";
            waited_minutes = f "waited" }
      | "serve_hedge" ->
        Serve_hedge
          { app = s "app"; from_device = i "from"; to_device = i "to";
            size = i "size" }
      | "serve_breaker" ->
        Serve_breaker
          { device = i "dev"; from_state = s "from"; to_state = s "to" }
      | "serve_deadline" ->
        Serve_deadline
          { app = s "app"; request = i "req"; met = b "met";
            slack_minutes = f "slack" }
      | "fed_route" ->
        Fed_route
          { app = s "app"; request = i "req"; region = i "region";
            cluster = s "cluster"; rtt_minutes = f "rtt" }
      | "fed_autoscale" ->
        Fed_autoscale
          { cluster = s "cluster"; action = s "action"; devices = i "devices";
            queue_len = i "queue" }
      | "fed_retune" ->
        Fed_retune
          { app = s "app"; epoch = i "epoch"; p99_minutes = f "p99";
            slo_minutes = f "slo"; tune_minutes = f "minutes";
            evals = i "evals" }
      | "fed_promote" ->
        Fed_promote { app = s "app"; epoch = i "epoch"; cfg = s "cfg" }
      | _ -> raise Json.Bad
    in
    { e_seq = i "seq"; e_minutes = f "min"; e_kind = kind }
  with
  | ev -> Some ev
  | exception _ -> None

let event_of_json line =
  match Json.parse_obj line with
  | fields -> event_of_fields fields
  | exception Json.Bad -> None

(* The logs sink's line: the wire fields in wire order, floats at six
   significant digits, everything else as on the wire. *)
let pp_event ppf e =
  let tag, fields = describe e.e_kind in
  let g = Printf.sprintf "%g" in
  Format.fprintf ppf "[%6d] %8.1fm %s" e.e_seq e.e_minutes tag;
  List.iter
    (fun (k, v) ->
      Format.fprintf ppf " %s=%s" k
        (match v with
        | Json.Str s -> Json.quote s
        | Json.Int i -> string_of_int i
        | Json.Num x -> g x
        | Json.Bool v -> string_of_bool v
        | Json.Nums xs -> "[" ^ String.concat "," (List.map g xs) ^ "]"))
    fields

(* ------------------------------------------------------------------ *)
(* Built-in sinks *)
(* ------------------------------------------------------------------ *)

let collector ?(capacity = 65536) () =
  let q = Queue.create () in
  let sink =
    { on_event =
        (fun e ->
          Queue.add e q;
          if Queue.length q > capacity then ignore (Queue.pop q));
      on_flush = (fun () -> ()) }
  in
  (sink, fun () -> List.of_seq (Queue.to_seq q))

let buffer_sink b =
  { on_event =
      (fun e ->
        Buffer.add_string b (json_of_event e);
        Buffer.add_char b '\n');
    on_flush = (fun () -> ()) }

let channel_sink oc =
  { on_event =
      (fun e ->
        output_string oc (json_of_event e);
        output_char oc '\n');
    on_flush = (fun () -> Stdlib.flush oc) }

let log_src = Logs.Src.create "s2fa.telemetry" ~doc:"S2FA DSE trace events"

let log_level = function
  | Fault_injected _ | Eval_retry _ | Quarantined _ | Core_lost _
  | Failover _ | Serve_timeout _ | Serve_breaker _ ->
    Logs.Warning
  | Run_begin _ | Run_end _ | Partition_start _ | Partition_stop _
  | Checkpoint_written _ | Fed_autoscale _ | Fed_retune _ | Fed_promote _ ->
    Logs.Info
  | Eval_start _ | Eval_done _ | Bandit_select _ | Entropy_sample _
  | Seed_injected _ | Serve_enqueue _ | Serve_batch _ | Serve_reconfig _
  | Serve_fallback _ | Serve_complete _ | Serve_shed _ | Serve_hedge _
  | Serve_deadline _ | Fed_route _ ->
    Logs.Debug

let logs_sink () =
  { on_event =
      (fun e ->
        Logs.msg ~src:log_src (log_level e.e_kind) (fun m ->
            m "%a" pp_event e));
    on_flush = (fun () -> ()) }
