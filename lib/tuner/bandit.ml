module Rng = S2fa_util.Rng
module Telemetry = S2fa_telemetry.Telemetry

(* OpenTuner's AUC bandit: credit over the last 50 outcomes, and an
   exploration coefficient of 0.3 on the UCB bonus. *)
let window = 50

let explore = 0.3

type t = {
  history : (int * bool) Queue.t;  (* (arm, improved) *)
  use_counts : int array;
  mutable total : int;
  trace : Telemetry.t option;
  names : string array;  (* arm labels for trace events *)
}

let create ?trace ?names n_arms =
  let names =
    match names with
    | Some l -> Array.of_list l
    | None -> Array.init n_arms (Printf.sprintf "arm%d")
  in
  { history = Queue.create ();
    use_counts = Array.make n_arms 0;
    total = 0;
    trace;
    names }

let auc_scores t =
  let n = Array.length t.use_counts in
  let num = Array.make n 0.0 in
  let den = Array.make n 0.0 in
  let i = ref 0 in
  Queue.iter
    (fun (arm, improved) ->
      incr i;
      (* Newer entries (larger i) weigh more, as in AUC credit. *)
      let w = float_of_int !i in
      if improved then num.(arm) <- num.(arm) +. w;
      den.(arm) <- den.(arm) +. w)
    t.history;
  Array.init n (fun a -> if den.(a) > 0.0 then num.(a) /. den.(a) else 0.0)

let select t rng =
  let n = Array.length t.use_counts in
  let scores = auc_scores t in
  let total = float_of_int (max 1 t.total) in
  let value a =
    let uses = float_of_int t.use_counts.(a) in
    if uses = 0.0 then infinity
    else scores.(a) +. (explore *. sqrt (2.0 *. log total /. uses))
  in
  let best_v = ref neg_infinity in
  let best = ref [] in
  for a = 0 to n - 1 do
    let v = value a in
    if v > !best_v then begin
      best_v := v;
      best := [ a ]
    end
    else if v = !best_v then best := a :: !best
  done;
  let arm =
    match !best with
    | [ a ] -> a
    | l -> Rng.choose_list rng l
  in
  t.use_counts.(arm) <- t.use_counts.(arm) + 1;
  t.total <- t.total + 1;
  (match t.trace with
  | None -> ()
  | Some tr ->
    Telemetry.emit tr
      (Telemetry.Bandit_select { arm; technique = t.names.(arm); scores }));
  arm

let reward t arm improved =
  Queue.add (arm, improved) t.history;
  if Queue.length t.history > window then ignore (Queue.pop t.history)

let uses t = Array.copy t.use_counts
