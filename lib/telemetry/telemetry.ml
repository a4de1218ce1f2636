(* Virtual-clock telemetry: all timestamps are simulated minutes plus a
   monotonic sequence number, never the wall clock, so traces under a
   fixed RNG seed are byte-reproducible. *)

type stage = Parse | Typecheck | Bytecode | Decompile | Transform | Estimate

let stage_name = function
  | Parse -> "parse"
  | Typecheck -> "typecheck"
  | Bytecode -> "bytecode"
  | Decompile -> "decompile"
  | Transform -> "transform"
  | Estimate -> "estimate"

let stage_of_name = function
  | "parse" -> Some Parse
  | "typecheck" -> Some Typecheck
  | "bytecode" -> Some Bytecode
  | "decompile" -> Some Decompile
  | "transform" -> Some Transform
  | "estimate" -> Some Estimate
  | _ -> None

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
  | Span_begin of stage
  | Span_end of stage
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
(* Metrics registry *)
(* ------------------------------------------------------------------ *)

module Metrics = struct
  type hstate = {
    hs_buckets : float array;
    hs_counts : int array;  (* one per bucket + overflow *)
    mutable hs_count : int;
    mutable hs_sum : float;
  }

  type t = {
    counters : (string, int ref) Hashtbl.t;
    gauges : (string, float ref) Hashtbl.t;
    histos : (string, hstate) Hashtbl.t;
  }

  let create () =
    { counters = Hashtbl.create 32;
      gauges = Hashtbl.create 8;
      histos = Hashtbl.create 8 }

  let incr ?(by = 1) t name =
    match Hashtbl.find_opt t.counters name with
    | Some r -> r := !r + by
    | None -> Hashtbl.add t.counters name (ref by)

  let set_gauge t name v =
    match Hashtbl.find_opt t.gauges name with
    | Some r -> r := v
    | None -> Hashtbl.add t.gauges name (ref v)

  let default_buckets = [| 0.001; 0.01; 0.1; 1.0; 10.0; 100.0 |]

  let observe ?(buckets = default_buckets) t name v =
    let h =
      match Hashtbl.find_opt t.histos name with
      | Some h -> h
      | None ->
        let h =
          { hs_buckets = Array.copy buckets;
            hs_counts = Array.make (Array.length buckets + 1) 0;
            hs_count = 0;
            hs_sum = 0.0 }
        in
        Hashtbl.add t.histos name h;
        h
    in
    let n = Array.length h.hs_buckets in
    let rec slot i = if i >= n || v <= h.hs_buckets.(i) then i else slot (i + 1) in
    let i = slot 0 in
    h.hs_counts.(i) <- h.hs_counts.(i) + 1;
    h.hs_count <- h.hs_count + 1;
    if Float.is_finite v then h.hs_sum <- h.hs_sum +. v

  type histogram = {
    h_buckets : float array;
    h_counts : int array;
    h_count : int;
    h_sum : float;
  }

  type snapshot = {
    ms_counters : (string * int) list;
    ms_gauges : (string * float) list;
    ms_histograms : (string * histogram) list;
  }

  let sorted_bindings fold conv tbl =
    fold (fun k v acc -> (k, conv v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let snapshot t =
    { ms_counters = sorted_bindings Hashtbl.fold (fun r -> !r) t.counters;
      ms_gauges = sorted_bindings Hashtbl.fold (fun r -> !r) t.gauges;
      ms_histograms =
        sorted_bindings Hashtbl.fold
          (fun h ->
            { h_buckets = Array.copy h.hs_buckets;
              h_counts = Array.copy h.hs_counts;
              h_count = h.hs_count;
              h_sum = h.hs_sum })
          t.histos }

  let counter s name =
    match List.assoc_opt name s.ms_counters with Some n -> n | None -> 0

  let pp_snapshot ppf s =
    List.iter
      (fun (n, v) -> Format.fprintf ppf "%-36s %12d@." n v)
      s.ms_counters;
    List.iter
      (fun (n, v) -> Format.fprintf ppf "%-36s %12g@." n v)
      s.ms_gauges;
    List.iter
      (fun (n, h) ->
        Format.fprintf ppf "%-36s n=%d sum=%g@." n h.h_count h.h_sum;
        Array.iteri
          (fun i c ->
            if c > 0 then
              if i < Array.length h.h_buckets then
                Format.fprintf ppf "  le %-10g %12d@." h.h_buckets.(i) c
              else Format.fprintf ppf "  le %-10s %12d@." "+inf" c)
          h.h_counts)
      s.ms_histograms
end

(* ------------------------------------------------------------------ *)
(* Built-in metric derivation from the event stream *)
(* ------------------------------------------------------------------ *)

let minute_buckets = [| 1.0; 2.0; 5.0; 10.0; 15.0; 20.0; 30.0 |]

let quality_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0 |]

(* Serving latencies are sub-second, so their minute-denominated
   histogram needs much finer buckets than the DSE's eval_minutes. *)
let serve_latency_buckets =
  [| 1e-7; 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0 |]

let fold_into_metrics m ev =
  match ev.e_kind with
  | Eval_done d ->
    (* "evals" counts search evaluations (it matches rr_evals); offline
       rule-fitting probes get their own counter. *)
    if d.partition < 0 then Metrics.incr m "evals.offline"
    else Metrics.incr m "evals";
    if d.feasible then Metrics.incr m "evals.feasible";
    if d.cache_hit then Metrics.incr m "evals.cache_hits";
    if d.improved then Metrics.incr m "evals.improved";
    if d.technique <> "" then begin
      Metrics.incr m ("technique." ^ d.technique ^ ".proposals");
      if d.improved then Metrics.incr m ("technique." ^ d.technique ^ ".wins")
    end;
    Metrics.observe ~buckets:minute_buckets m "eval_minutes" d.eval_minutes;
    if d.feasible then
      Metrics.observe ~buckets:quality_buckets m "quality" d.quality
  | Eval_start _ -> ()
  | Bandit_select s -> Metrics.incr m ("bandit.select." ^ s.technique)
  | Seed_injected _ -> Metrics.incr m "seeds.injected"
  | Partition_start _ -> Metrics.incr m "partitions.started"
  | Partition_stop p ->
    Metrics.incr m ("partitions.stopped." ^ stop_reason_name p.reason)
  | Entropy_sample s -> Metrics.set_gauge m "entropy" s.entropy
  | Fault_injected f ->
    Metrics.incr m ("faults.injected." ^ f.failure);
    Metrics.observe ~buckets:minute_buckets m "faults.lost_minutes"
      f.lost_minutes
  | Eval_retry _ -> Metrics.incr m "faults.retries"
  | Quarantined _ -> Metrics.incr m "faults.quarantined"
  | Core_lost _ -> Metrics.incr m "cores.lost"
  | Failover _ -> Metrics.incr m "failovers"
  | Checkpoint_written _ -> Metrics.incr m "checkpoints"
  | Serve_enqueue _ -> Metrics.incr m "serve.enqueued"
  | Serve_batch b ->
    Metrics.incr m "serve.batches";
    Metrics.incr ~by:b.size m "serve.batched"
  | Serve_reconfig _ -> Metrics.incr m "serve.reconfigs"
  | Serve_fallback _ -> Metrics.incr m "serve.fallbacks"
  | Serve_complete c ->
    Metrics.incr m "serve.completed";
    Metrics.observe ~buckets:serve_latency_buckets m "serve.latency_minutes"
      c.latency_minutes
  | Serve_shed _ -> Metrics.incr m "serve.shed"
  | Serve_timeout _ -> Metrics.incr m "serve.timeouts"
  | Serve_hedge _ -> Metrics.incr m "serve.hedges"
  | Serve_breaker b -> Metrics.incr m ("serve.breaker." ^ b.to_state)
  | Serve_deadline d ->
    Metrics.incr m
      (if d.met then "serve.deadline.met" else "serve.deadline.missed")
  | Fed_route _ -> Metrics.incr m "fed.routed"
  | Fed_autoscale a -> Metrics.incr m ("fed.autoscale." ^ a.action)
  | Fed_retune _ -> Metrics.incr m "fed.retunes"
  | Fed_promote _ -> Metrics.incr m "fed.promotions"
  | Span_begin _ -> ()
  | Span_end st -> Metrics.incr m ("spans." ^ stage_name st)
  | Run_begin _ -> Metrics.incr m "runs"
  | Run_end r -> Metrics.set_gauge m "best_quality" r.best

(* ------------------------------------------------------------------ *)
(* The tracer *)
(* ------------------------------------------------------------------ *)

type t = {
  mutable sinks : sink list;
  t_metrics : Metrics.t;
  mutable t_clock : float;
  mutable t_seq : int;
  mutable t_partition : int;
}

let create ?(sinks = []) () =
  { sinks;
    t_metrics = Metrics.create ();
    t_clock = 0.0;
    t_seq = 0;
    t_partition = -1 }

let add_sink t s = t.sinks <- t.sinks @ [ s ]

let metrics t = t.t_metrics

let set_clock t m = t.t_clock <- m

let clock t = t.t_clock

let set_partition t p = t.t_partition <- p

let partition t = t.t_partition

let emitted t = t.t_seq

let emit t kind =
  let ev = { e_seq = t.t_seq; e_minutes = t.t_clock; e_kind = kind } in
  t.t_seq <- t.t_seq + 1;
  fold_into_metrics t.t_metrics ev;
  List.iter (fun s -> s.on_event ev) t.sinks

let flush t = List.iter (fun s -> s.on_flush ()) t.sinks

let with_span t stage f =
  match t with
  | None -> f ()
  | Some tr ->
    emit tr (Span_begin stage);
    let r = f () in
    emit tr (Span_end stage);
    r

(* ------------------------------------------------------------------ *)
(* Serialization: one JSON object per event *)
(* ------------------------------------------------------------------ *)

(* 17 significant digits round-trip every IEEE double exactly; the
   non-finite values JSON cannot express are quoted strings that
   [float_of_string] maps back bit-exactly. *)
let fstr x =
  if Float.is_nan x then "\"nan\""
  else if x = infinity then "\"inf\""
  else if x = neg_infinity then "\"-inf\""
  else Printf.sprintf "%.17g" x

let jstring s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 32 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_of_event e =
  let b = Buffer.create 160 in
  let field name value =
    if Buffer.length b > 1 then Buffer.add_char b ',';
    Buffer.add_string b (jstring name);
    Buffer.add_char b ':';
    Buffer.add_string b value
  in
  let str name s = field name (jstring s) in
  let num name f = field name (fstr f) in
  let int_ name i = field name (string_of_int i) in
  let bool_ name v = field name (if v then "true" else "false") in
  Buffer.add_char b '{';
  int_ "seq" e.e_seq;
  num "min" e.e_minutes;
  (match e.e_kind with
  | Run_begin r ->
    str "ev" "run_begin";
    str "flow" r.flow;
    int_ "cores" r.cores;
    num "limit" r.time_limit
  | Run_end r ->
    str "ev" "run_end";
    num "minutes" r.minutes;
    int_ "evals" r.evals;
    num "best" r.best
  | Span_begin st ->
    str "ev" "span_begin";
    str "stage" (stage_name st)
  | Span_end st ->
    str "ev" "span_end";
    str "stage" (stage_name st)
  | Eval_start v ->
    str "ev" "eval_start";
    str "cfg" v.cfg_key;
    int_ "part" v.partition;
    str "tech" v.technique
  | Eval_done v ->
    str "ev" "eval_done";
    str "cfg" v.cfg_key;
    num "q" v.quality;
    bool_ "feas" v.feasible;
    num "emin" v.eval_minutes;
    bool_ "hit" v.cache_hit;
    int_ "part" v.partition;
    str "tech" v.technique;
    bool_ "imp" v.improved
  | Bandit_select s ->
    str "ev" "bandit_select";
    int_ "arm" s.arm;
    str "tech" s.technique;
    field "scores"
      ("["
      ^ String.concat "," (Array.to_list (Array.map fstr s.scores))
      ^ "]")
  | Partition_start p ->
    str "ev" "partition_start";
    int_ "part" p.partition;
    int_ "core" p.core;
    str "constrs" p.constrs;
    num "points" p.points
  | Partition_stop p ->
    str "ev" "partition_stop";
    int_ "part" p.partition;
    int_ "core" p.core;
    str "reason" (stop_reason_name p.reason);
    int_ "evals" p.evals
  | Entropy_sample s ->
    str "ev" "entropy_sample";
    int_ "part" s.partition;
    int_ "evals" s.evaluated;
    num "entropy" s.entropy
  | Seed_injected s ->
    str "ev" "seed_injected";
    str "cfg" s.cfg_key;
    int_ "part" s.partition
  | Fault_injected f ->
    str "ev" "fault";
    str "cfg" f.cfg_key;
    int_ "part" f.partition;
    str "class" f.failure;
    num "lost" f.lost_minutes;
    int_ "attempt" f.attempt
  | Eval_retry r ->
    str "ev" "retry";
    str "cfg" r.cfg_key;
    int_ "part" r.partition;
    int_ "attempt" r.attempt;
    num "backoff" r.backoff_minutes
  | Quarantined q ->
    str "ev" "quarantine";
    str "cfg" q.cfg_key;
    int_ "part" q.partition;
    int_ "attempts" q.attempts;
    num "lost" q.lost_minutes
  | Core_lost c ->
    str "ev" "core_lost";
    int_ "core" c.core;
    int_ "part" c.partition
  | Failover f ->
    str "ev" "failover";
    int_ "part" f.partition;
    int_ "from" f.from_core;
    int_ "to" f.to_core
  | Checkpoint_written c ->
    str "ev" "checkpoint";
    str "path" c.path;
    num "minutes" c.minutes;
    int_ "evals" c.evals
  | Serve_enqueue s ->
    str "ev" "serve_enq";
    str "app" s.app;
    int_ "req" s.request;
    int_ "qlen" s.queue_len
  | Serve_batch s ->
    str "ev" "serve_batch";
    str "app" s.app;
    int_ "dev" s.device;
    int_ "size" s.size;
    num "svc" s.service_minutes
  | Serve_reconfig s ->
    str "ev" "serve_reconfig";
    int_ "dev" s.device;
    str "from" s.from_app;
    str "to" s.to_app;
    num "minutes" s.minutes
  | Serve_fallback s ->
    str "ev" "serve_fallback";
    str "app" s.app;
    int_ "req" s.request;
    str "reason" s.reason
  | Serve_complete s ->
    str "ev" "serve_done";
    str "app" s.app;
    int_ "req" s.request;
    num "lat" s.latency_minutes;
    bool_ "acc" s.accelerated
  | Serve_shed s ->
    str "ev" "serve_shed";
    str "app" s.app;
    int_ "req" s.request;
    str "stage" s.stage;
    num "deadline" s.deadline_minutes;
    num "est" s.estimate_minutes
  | Serve_timeout s ->
    str "ev" "serve_timeout";
    str "app" s.app;
    int_ "dev" s.device;
    int_ "size" s.size;
    num "waited" s.waited_minutes
  | Serve_hedge s ->
    str "ev" "serve_hedge";
    str "app" s.app;
    int_ "from" s.from_device;
    int_ "to" s.to_device;
    int_ "size" s.size
  | Serve_breaker s ->
    str "ev" "serve_breaker";
    int_ "dev" s.device;
    str "from" s.from_state;
    str "to" s.to_state
  | Serve_deadline s ->
    str "ev" "serve_deadline";
    str "app" s.app;
    int_ "req" s.request;
    bool_ "met" s.met;
    num "slack" s.slack_minutes
  | Fed_route s ->
    str "ev" "fed_route";
    str "app" s.app;
    int_ "req" s.request;
    int_ "region" s.region;
    str "cluster" s.cluster;
    num "rtt" s.rtt_minutes
  | Fed_autoscale s ->
    str "ev" "fed_autoscale";
    str "cluster" s.cluster;
    str "action" s.action;
    int_ "devices" s.devices;
    int_ "queue" s.queue_len
  | Fed_retune s ->
    str "ev" "fed_retune";
    str "app" s.app;
    int_ "epoch" s.epoch;
    num "p99" s.p99_minutes;
    num "slo" s.slo_minutes;
    num "minutes" s.tune_minutes;
    int_ "evals" s.evals
  | Fed_promote s ->
    str "ev" "fed_promote";
    str "app" s.app;
    int_ "epoch" s.epoch;
    str "cfg" s.cfg);
  Buffer.add_char b '}';
  Buffer.contents b

(* ---------- the matching JSON reader ---------- *)

type jv =
  | Jstr of string
  | Jnum of float
  | Jbool of bool
  | Jarr of float list
  | Jobj of (string * jv) list

exception Bad

(* Every malformed value raises [Bad], never [Failure], so readers need
   one handler. *)
let float_of s =
  match float_of_string_opt s with Some f -> f | None -> raise Bad

(* One object with nothing but whitespace (newlines included) around
   it. Duplicate keys, trailing commas and number literals outside the
   double range are malformed; [Error pos] is where parsing stopped. *)
let parse_object src =
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
  (* After an element: [true] when another follows, [false] at [close]. *)
  let next close =
    skip_ws ();
    match peek () with
    | ',' -> advance (); true
    | c when c = close -> advance (); false
    | _ -> raise Bad
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    (* Quoted non-finite floats come back as strings; callers that
       expect a float coerce via [as_float]. *)
    | '"' -> Jstr (parse_string ())
    | 't' -> literal "true" (Jbool true)
    | 'f' -> literal "false" (Jbool false)
    | '{' -> Jobj (parse_members ())
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
  and parse_members () =
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
  match
    let fields = parse_members () in
    skip_ws ();
    if !pos < n then raise Bad;
    fields
  with
  | fields -> Ok fields
  | exception Bad -> Error !pos

let parse_obj src =
  match parse_object src with Ok fields -> fields | Error _ -> raise Bad

let as_float = function
  | Jnum f -> f
  | Jstr s -> float_of s
  | _ -> raise Bad

let fget fields k =
  match List.assoc_opt k fields with Some v -> as_float v | None -> raise Bad

(* Integral and inside [int]'s range: an integer field never truncates. *)
let iget fields k =
  let f = fget fields k in
  if Float.is_integer f && Float.abs f < 0x1p62 then int_of_float f
  else raise Bad

let sget fields k =
  match List.assoc_opt k fields with Some (Jstr s) -> s | _ -> raise Bad

let bget fields k =
  match List.assoc_opt k fields with Some (Jbool b) -> b | _ -> raise Bad

let aget fields k =
  match List.assoc_opt k fields with Some (Jarr l) -> l | _ -> raise Bad

let event_of_fields fields =
  match
    let stage_of fields =
      match stage_of_name (sget fields "stage") with
      | Some s -> s
      | None -> raise Bad
    in
    let kind =
      match sget fields "ev" with
      | "run_begin" ->
        Run_begin
          { flow = sget fields "flow";
            cores = iget fields "cores";
            time_limit = fget fields "limit" }
      | "run_end" ->
        Run_end
          { minutes = fget fields "minutes";
            evals = iget fields "evals";
            best = fget fields "best" }
      | "span_begin" -> Span_begin (stage_of fields)
      | "span_end" -> Span_end (stage_of fields)
      | "eval_start" ->
        Eval_start
          { cfg_key = sget fields "cfg";
            partition = iget fields "part";
            technique = sget fields "tech" }
      | "eval_done" ->
        Eval_done
          { cfg_key = sget fields "cfg";
            quality = fget fields "q";
            feasible = bget fields "feas";
            eval_minutes = fget fields "emin";
            cache_hit = bget fields "hit";
            partition = iget fields "part";
            technique = sget fields "tech";
            improved = bget fields "imp" }
      | "bandit_select" ->
        Bandit_select
          { arm = iget fields "arm";
            technique = sget fields "tech";
            scores = Array.of_list (aget fields "scores") }
      | "partition_start" ->
        Partition_start
          { partition = iget fields "part";
            core = iget fields "core";
            constrs = sget fields "constrs";
            points = fget fields "points" }
      | "partition_stop" ->
        Partition_stop
          { partition = iget fields "part";
            core = iget fields "core";
            reason =
              (match stop_reason_of_name (sget fields "reason") with
              | Some r -> r
              | None -> raise Bad);
            evals = iget fields "evals" }
      | "entropy_sample" ->
        Entropy_sample
          { partition = iget fields "part";
            evaluated = iget fields "evals";
            entropy = fget fields "entropy" }
      | "seed_injected" ->
        Seed_injected
          { cfg_key = sget fields "cfg"; partition = iget fields "part" }
      | "fault" ->
        Fault_injected
          { cfg_key = sget fields "cfg";
            partition = iget fields "part";
            failure = sget fields "class";
            lost_minutes = fget fields "lost";
            attempt = iget fields "attempt" }
      | "retry" ->
        Eval_retry
          { cfg_key = sget fields "cfg";
            partition = iget fields "part";
            attempt = iget fields "attempt";
            backoff_minutes = fget fields "backoff" }
      | "quarantine" ->
        Quarantined
          { cfg_key = sget fields "cfg";
            partition = iget fields "part";
            attempts = iget fields "attempts";
            lost_minutes = fget fields "lost" }
      | "core_lost" ->
        Core_lost { core = iget fields "core"; partition = iget fields "part" }
      | "failover" ->
        Failover
          { partition = iget fields "part";
            from_core = iget fields "from";
            to_core = iget fields "to" }
      | "checkpoint" ->
        Checkpoint_written
          { path = sget fields "path";
            minutes = fget fields "minutes";
            evals = iget fields "evals" }
      | "serve_enq" ->
        Serve_enqueue
          { app = sget fields "app";
            request = iget fields "req";
            queue_len = iget fields "qlen" }
      | "serve_batch" ->
        Serve_batch
          { app = sget fields "app";
            device = iget fields "dev";
            size = iget fields "size";
            service_minutes = fget fields "svc" }
      | "serve_reconfig" ->
        Serve_reconfig
          { device = iget fields "dev";
            from_app = sget fields "from";
            to_app = sget fields "to";
            minutes = fget fields "minutes" }
      | "serve_fallback" ->
        Serve_fallback
          { app = sget fields "app";
            request = iget fields "req";
            reason = sget fields "reason" }
      | "serve_done" ->
        Serve_complete
          { app = sget fields "app";
            request = iget fields "req";
            latency_minutes = fget fields "lat";
            accelerated = bget fields "acc" }
      | "serve_shed" ->
        Serve_shed
          { app = sget fields "app";
            request = iget fields "req";
            stage = sget fields "stage";
            deadline_minutes = fget fields "deadline";
            estimate_minutes = fget fields "est" }
      | "serve_timeout" ->
        Serve_timeout
          { app = sget fields "app";
            device = iget fields "dev";
            size = iget fields "size";
            waited_minutes = fget fields "waited" }
      | "serve_hedge" ->
        Serve_hedge
          { app = sget fields "app";
            from_device = iget fields "from";
            to_device = iget fields "to";
            size = iget fields "size" }
      | "serve_breaker" ->
        Serve_breaker
          { device = iget fields "dev";
            from_state = sget fields "from";
            to_state = sget fields "to" }
      | "serve_deadline" ->
        Serve_deadline
          { app = sget fields "app";
            request = iget fields "req";
            met = bget fields "met";
            slack_minutes = fget fields "slack" }
      | "fed_route" ->
        Fed_route
          { app = sget fields "app";
            request = iget fields "req";
            region = iget fields "region";
            cluster = sget fields "cluster";
            rtt_minutes = fget fields "rtt" }
      | "fed_autoscale" ->
        Fed_autoscale
          { cluster = sget fields "cluster";
            action = sget fields "action";
            devices = iget fields "devices";
            queue_len = iget fields "queue" }
      | "fed_retune" ->
        Fed_retune
          { app = sget fields "app";
            epoch = iget fields "epoch";
            p99_minutes = fget fields "p99";
            slo_minutes = fget fields "slo";
            tune_minutes = fget fields "minutes";
            evals = iget fields "evals" }
      | "fed_promote" ->
        Fed_promote
          { app = sget fields "app";
            epoch = iget fields "epoch";
            cfg = sget fields "cfg" }
      | _ -> raise Bad
    in
    { e_seq = iget fields "seq"; e_minutes = fget fields "min"; e_kind = kind }
  with
  | ev -> Some ev
  | exception _ -> None

let event_of_json line =
  match parse_obj line with
  | fields -> event_of_fields fields
  | exception Bad -> None

(* ------------------------------------------------------------------ *)
(* Human-readable rendering (the logs sink's format) *)
(* ------------------------------------------------------------------ *)

let pp_event ppf e =
  let p fmt = Format.fprintf ppf fmt in
  p "[%6d] %8.1fm " e.e_seq e.e_minutes;
  match e.e_kind with
  | Run_begin r ->
    p "run_begin flow=%s cores=%d limit=%.0fm" r.flow r.cores r.time_limit
  | Run_end r ->
    p "run_end minutes=%.1f evals=%d best=%g" r.minutes r.evals r.best
  | Span_begin st -> p "span_begin %s" (stage_name st)
  | Span_end st -> p "span_end %s" (stage_name st)
  | Eval_start v ->
    p "eval_start part=%d tech=%s cfg=%s" v.partition
      (if v.technique = "" then "-" else v.technique)
      v.cfg_key
  | Eval_done v ->
    p "eval_done part=%d tech=%s q=%g feas=%b %.1fm%s%s cfg=%s" v.partition
      (if v.technique = "" then "-" else v.technique)
      v.quality v.feasible v.eval_minutes
      (if v.cache_hit then " hit" else "")
      (if v.improved then " improved" else "")
      v.cfg_key
  | Bandit_select s ->
    p "bandit_select arm=%d tech=%s scores=[%s]" s.arm s.technique
      (String.concat " "
         (Array.to_list (Array.map (Printf.sprintf "%.3f") s.scores)))
  | Partition_start q ->
    p "partition_start part=%d core=%d points=%g constrs=%s" q.partition
      q.core q.points
      (if q.constrs = "" then "-" else q.constrs)
  | Partition_stop q ->
    p "partition_stop part=%d core=%d reason=%s evals=%d" q.partition q.core
      (stop_reason_name q.reason) q.evals
  | Entropy_sample s ->
    p "entropy_sample part=%d evals=%d entropy=%.4f" s.partition s.evaluated
      s.entropy
  | Seed_injected s -> p "seed_injected part=%d cfg=%s" s.partition s.cfg_key
  | Fault_injected f ->
    p "fault part=%d class=%s lost=%.1fm attempt=%d cfg=%s" f.partition
      f.failure f.lost_minutes f.attempt f.cfg_key
  | Eval_retry r ->
    p "retry part=%d attempt=%d backoff=%.1fm cfg=%s" r.partition r.attempt
      r.backoff_minutes r.cfg_key
  | Quarantined q ->
    p "quarantine part=%d attempts=%d lost=%.1fm cfg=%s" q.partition
      q.attempts q.lost_minutes q.cfg_key
  | Core_lost c -> p "core_lost core=%d part=%d" c.core c.partition
  | Failover f ->
    p "failover part=%d from=%d to=%d" f.partition f.from_core f.to_core
  | Checkpoint_written c ->
    p "checkpoint minutes=%.1f evals=%d path=%s" c.minutes c.evals c.path
  | Serve_enqueue s ->
    p "serve_enq app=%s req=%d qlen=%d" s.app s.request s.queue_len
  | Serve_batch s ->
    p "serve_batch app=%s dev=%d size=%d svc=%.4fm" s.app s.device s.size
      s.service_minutes
  | Serve_reconfig s ->
    p "serve_reconfig dev=%d from=%s to=%s %.2fm" s.device
      (if s.from_app = "" then "-" else s.from_app)
      s.to_app s.minutes
  | Serve_fallback s ->
    p "serve_fallback app=%s req=%d reason=%s" s.app s.request s.reason
  | Serve_complete s ->
    p "serve_done app=%s req=%d lat=%.4fm%s" s.app s.request s.latency_minutes
      (if s.accelerated then "" else " jvm")
  | Serve_shed s ->
    p "serve_shed app=%s req=%d stage=%s deadline=%.4fm est=%.4fm" s.app
      s.request s.stage s.deadline_minutes s.estimate_minutes
  | Serve_timeout s ->
    p "serve_timeout app=%s dev=%d size=%d waited=%.4fm" s.app s.device
      s.size s.waited_minutes
  | Serve_hedge s ->
    p "serve_hedge app=%s from=%d to=%d size=%d" s.app s.from_device
      s.to_device s.size
  | Serve_breaker s ->
    p "serve_breaker dev=%d %s->%s" s.device s.from_state s.to_state
  | Serve_deadline s ->
    p "serve_deadline app=%s req=%d met=%b slack=%.4fm" s.app s.request s.met
      s.slack_minutes
  | Fed_route s ->
    p "fed_route app=%s req=%d region=%d cluster=%s rtt=%.4fm" s.app
      s.request s.region s.cluster s.rtt_minutes
  | Fed_autoscale s ->
    p "fed_autoscale cluster=%s %s devices=%d queue=%d" s.cluster s.action
      s.devices s.queue_len
  | Fed_retune s ->
    p "fed_retune app=%s epoch=%d p99=%.4fm slo=%.4fm tuned=%.1fm evals=%d"
      s.app s.epoch s.p99_minutes s.slo_minutes s.tune_minutes s.evals
  | Fed_promote s ->
    p "fed_promote app=%s epoch=%d cfg=%s" s.app s.epoch s.cfg

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

let logs_sink ?(level = Logs.Debug) () =
  { on_event =
      (fun e ->
        Logs.msg ~src:log_src level (fun m -> m "%a" pp_event e));
    on_flush = (fun () -> ()) }

(* ------------------------------------------------------------------ *)
(* The JSON codec every reader of the project shares: the trace's
   float round-trip contract, one parser, and the file readers that
   locate every rejection. *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type v = jv =
    | Jstr of string
    | Jnum of float
    | Jbool of bool
    | Jarr of float list
    | Jobj of (string * jv) list

  exception Bad = Bad

  let fstr = fstr
  let quote = jstring
  let parse_obj = parse_obj
  let find fields k = List.assoc_opt k fields
  let get_float = fget
  let get_int = iget
  let get_str = sget
  let get_bool = bget
  let get_arr = aget

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

  let read_obj path =
    Result.bind (read_file path) @@ fun src ->
    match parse_object src with
    | Ok fields -> Ok fields
    | Error pos ->
      (* The line holding offset [pos]; a stop at the end of the input
         is on its last line. *)
      let stop = min pos (String.length src - 1) in
      let line = ref 1 in
      String.iteri (fun i c -> if c = '\n' && i < stop then incr line) src;
      Error (Printf.sprintf "%s:%d: malformed JSON" path !line)

  let decode_lines ~file lines decode =
    located ~file @@ fun () ->
    List.mapi (fun i l -> (i + 1, l)) lines
    |> List.filter_map (fun (n, l) ->
           if String.trim l = "" then None else Some (decode n (parse_at n l)))

  let read_jsonl path decode =
    Result.bind (read_file path) @@ fun src ->
    decode_lines ~file:path (String.split_on_char '\n' src) decode
end
