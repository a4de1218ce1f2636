type eval_result = { e_perf : float; e_feasible : bool; e_minutes : float }

type detail = {
  d_cycles : float;
  d_freq_mhz : float;
  d_lut_pct : float;
  d_ff_pct : float;
  d_bram_pct : float;
  d_dsp_pct : float;
}

type entry = { en_result : eval_result; en_detail : detail option }

(* Configuration keys are interned: the canonical key string is built
   (and hashed) once per distinct design point, then every table is
   keyed by its dense integer id. A DSE probes the same points over and
   over, so the old scheme re-normalized, re-rendered and re-hashed the
   long "n=v;..." string on every lookup/insert/peek — pure overhead
   the ROADMAP's "raw speed" item called out. *)
type t = {
  ids : (string, int) Hashtbl.t;    (* canonical key -> dense id *)
  mutable names : string array;     (* dense id -> canonical key *)
  mutable n_ids : int;
  tbl : (int, entry) Hashtbl.t;
  pending : (int, detail) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
  mutable rejected : int;
  mutable minutes_saved : float;
}

type snapshot = {
  sn_entries : int;
  sn_hits : int;
  sn_misses : int;
  sn_inserts : int;
  sn_rejected : int;
  sn_minutes_saved : float;
}

let create () =
  { ids = Hashtbl.create 256;
    names = [||];
    n_ids = 0;
    tbl = Hashtbl.create 256;
    pending = Hashtbl.create 8;
    hits = 0;
    misses = 0;
    inserts = 0;
    rejected = 0;
    minutes_saved = 0.0 }

let intern db s =
  match Hashtbl.find_opt db.ids s with
  | Some id -> id
  | None ->
    let id = db.n_ids in
    let cap = Array.length db.names in
    if id = cap then begin
      let names = Array.make (max 16 (2 * cap)) "" in
      Array.blit db.names 0 names 0 id;
      db.names <- names
    end;
    db.names.(id) <- s;
    Hashtbl.add db.ids s id;
    db.n_ids <- id + 1;
    id

(* The poisoning guard. A quarantined design point — one whose every
   evaluation attempt was eaten by injected faults — carries a NaN
   quality: not a measurement, a tombstone. Memoizing it would freeze a
   transient tool failure into a permanent verdict the whole exploration
   shares, so the database refuses it. *)
let poisoned r = Float.is_nan r.e_perf

let length db = Hashtbl.length db.tbl

let id_of db cfg = intern db (Space.key cfg)

let lookup_id db id =
  match Hashtbl.find_opt db.tbl id with
  | Some e ->
    db.hits <- db.hits + 1;
    db.minutes_saved <- db.minutes_saved +. e.en_result.e_minutes;
    (* A hit is a database read, not an SDx run: it costs no HLS clock. *)
    Some { e.en_result with e_minutes = 0.0 }
  | None ->
    db.misses <- db.misses + 1;
    None

let lookup db cfg = lookup_id db (id_of db cfg)

let peek db cfg = Hashtbl.find_opt db.tbl (id_of db cfg)

let insert_id db ?detail id r =
  if poisoned r then db.rejected <- db.rejected + 1
  else if not (Hashtbl.mem db.tbl id) then begin
    let detail =
      match detail with
      | Some _ -> detail
      | None ->
        let d = Hashtbl.find_opt db.pending id in
        Hashtbl.remove db.pending id;
        d
    in
    Hashtbl.replace db.tbl id { en_result = r; en_detail = detail };
    db.inserts <- db.inserts + 1
  end

let insert db ?detail cfg r = insert_id db ?detail (id_of db cfg) r

let attach_detail db cfg d =
  let id = id_of db cfg in
  match Hashtbl.find_opt db.tbl id with
  | Some e -> Hashtbl.replace db.tbl id { e with en_detail = Some d }
  | None -> Hashtbl.replace db.pending id d

(* The key is canonicalized once per call, not once for the lookup and
   again for the insert. *)
let memoize db f cfg =
  let id = id_of db cfg in
  match lookup_id db id with
  | Some r -> r
  | None ->
    let r = f cfg in
    insert_id db id r;
    r

let to_list db =
  Hashtbl.fold (fun id e acc -> (db.names.(id), e.en_result) :: acc) db.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot db =
  { sn_entries = Hashtbl.length db.tbl;
    sn_hits = db.hits;
    sn_misses = db.misses;
    sn_inserts = db.inserts;
    sn_rejected = db.rejected;
    sn_minutes_saved = db.minutes_saved }

let diff later earlier =
  { sn_entries = later.sn_entries;
    sn_hits = later.sn_hits - earlier.sn_hits;
    sn_misses = later.sn_misses - earlier.sn_misses;
    sn_inserts = later.sn_inserts - earlier.sn_inserts;
    sn_rejected = later.sn_rejected - earlier.sn_rejected;
    sn_minutes_saved = later.sn_minutes_saved -. earlier.sn_minutes_saved }

let hit_rate s =
  let total = s.sn_hits + s.sn_misses in
  if total = 0 then 0.0 else float_of_int s.sn_hits /. float_of_int total

let pp_snapshot ppf s =
  Format.fprintf ppf
    "%d entries, %d hits / %d misses (%.1f%% hit rate), %d inserts, %.1f \
     simulated minutes saved"
    s.sn_entries s.sn_hits s.sn_misses
    (100.0 *. hit_rate s)
    s.sn_inserts s.sn_minutes_saved;
  if s.sn_rejected > 0 then
    Format.fprintf ppf ", %d quarantined results refused" s.sn_rejected
