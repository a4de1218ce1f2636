(* The benchmark's own telemetry sink. It keeps counters and the few
   payloads the replays need, never a bounded ring: the library's
   [Telemetry.collector] holds the last 65,536 events, fewer than one
   serve-1k run emits, so counts taken from it would silently come up
   short. *)

module T = S2fa_telemetry.Telemetry

type t = {
  mutable events : int;
  mutable batches : (string * int) list;  (** (app, size), newest first. *)
  mutable n_batches : int;
  mutable fallbacks : (string * int) list;  (** (app, request id). *)
  mutable n_fallbacks : int;
  mutable reconfigs : int;
  mutable evals : int;          (** Search-phase [Eval_done]. *)
  mutable feasible : int;       (** ... of which feasible. *)
  mutable offline_evals : int;  (** Offline rule-fitting probes. *)
  mutable partitions : int;
  mutable stop_entropy : int;
  mutable stop_time : int;
  mutable routes : (int * string) list;  (** (origin region, cluster). *)
  mutable autoscale : int;
  mutable leases : int;
  mutable retunes : (string * int * int) list;  (** (app, epoch, evals). *)
}

let on_event s (e : T.event) =
  s.events <- s.events + 1;
  match e.T.e_kind with
  | T.Serve_batch { app; size; _ } ->
    s.batches <- (app, size) :: s.batches;
    s.n_batches <- s.n_batches + 1
  | T.Serve_fallback { app; request; _ } ->
    s.fallbacks <- (app, request) :: s.fallbacks;
    s.n_fallbacks <- s.n_fallbacks + 1
  | T.Serve_reconfig _ -> s.reconfigs <- s.reconfigs + 1
  | T.Eval_done { partition; feasible; _ } ->
    if partition < 0 then s.offline_evals <- s.offline_evals + 1
    else begin
      s.evals <- s.evals + 1;
      if feasible then s.feasible <- s.feasible + 1
    end
  | T.Partition_start _ -> s.partitions <- s.partitions + 1
  | T.Partition_stop { reason = T.Stop_entropy; _ } ->
    s.stop_entropy <- s.stop_entropy + 1
  | T.Partition_stop { reason = T.Stop_time; _ } ->
    s.stop_time <- s.stop_time + 1
  | T.Fed_route { region; cluster; _ } ->
    s.routes <- (region, cluster) :: s.routes
  | T.Fed_autoscale { action; _ } ->
    s.autoscale <- s.autoscale + 1;
    if action = "lease" then s.leases <- s.leases + 1
  | T.Fed_retune { app; epoch; evals; _ } ->
    s.retunes <- (app, epoch, evals) :: s.retunes
  | _ -> ()

let create () =
  let s =
    { events = 0; batches = []; n_batches = 0; fallbacks = [];
      n_fallbacks = 0; reconfigs = 0; evals = 0; feasible = 0;
      offline_evals = 0; partitions = 0; stop_entropy = 0; stop_time = 0;
      routes = []; autoscale = 0; leases = 0; retunes = [] }
  in
  (s, { T.on_event = on_event s; on_flush = ignore })
