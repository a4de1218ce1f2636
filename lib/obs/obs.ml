(* Hierarchical span profiler over both clocks (virtual minutes + host
   wall/Gc). See obs.mli for the determinism and observer-effect
   contracts. *)

module Json = S2fa_telemetry.Telemetry.Json

module Profiler = struct
  type span = {
    sp_id : int;
    sp_parent : int;
    sp_name : string;
    sp_path : string;
    sp_vbegin : float;
    sp_vend : float;
    sp_wall_ns : float;
    sp_alloc_bytes : float;
    sp_counters : (string * int) list;
  }

  (* An open span. Every serialization sorts its counter table, so the
     table's capacity can never leak into output bytes. *)
  type frame = {
    f_id : int;
    f_parent : int;
    f_name : string;
    f_path : string;
    f_vbegin : float;
    f_wall0 : float;
    f_alloc0 : float;
    f_counters : (string, int) Hashtbl.t;
  }

  type t = {
    mutable clock : float;
    mutable next_id : int;
    mutable stack : frame list;
    mutable done_rev : span list;  (* completion order, reversed *)
  }

  let create () = { clock = 0.0; next_id = 0; stack = []; done_rev = [] }

  let set_clock t m = t.clock <- m
  let clock t = t.clock
  let spans t = List.rev t.done_rev
  let depth t = List.length t.stack

  (* Semicolons delimit folded-stack frames; keep names unambiguous. *)
  let sanitize name =
    if String.contains name ';' then
      String.map (fun c -> if c = ';' then ',' else c) name
    else name

  (* Bytes this domain has allocated so far. [Gc.allocated_bytes]
     would do, but on OCaml 5.1 it counts the minor heap's uncollected
     part at a fraction of its size; [Gc.minor_words] counts all of it. *)
  let allocated_bytes () =
    let _, promoted, major = Gc.counters () in
    (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

  let open_span t name =
    let name = sanitize name in
    let parent, path =
      match t.stack with
      | [] -> (-1, name)
      | f :: _ -> (f.f_id, f.f_path ^ ";" ^ name)
    in
    let f =
      { f_id = t.next_id;
        f_parent = parent;
        f_name = name;
        f_path = path;
        f_vbegin = t.clock;
        f_wall0 = Unix.gettimeofday ();
        f_alloc0 = allocated_bytes ();
        f_counters = Hashtbl.create 16 }
    in
    t.next_id <- t.next_id + 1;
    t.stack <- f :: t.stack

  let close_span t =
    match t.stack with
    | [] -> invalid_arg "Obs.Profiler.close_span: no open span"
    | f :: rest ->
      t.stack <- rest;
      let counters =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) f.f_counters []
        |> List.sort compare
      in
      t.done_rev <-
        { sp_id = f.f_id;
          sp_parent = f.f_parent;
          sp_name = f.f_name;
          sp_path = f.f_path;
          sp_vbegin = f.f_vbegin;
          sp_vend = t.clock;
          sp_wall_ns = (Unix.gettimeofday () -. f.f_wall0) *. 1e9;
          sp_alloc_bytes = allocated_bytes () -. f.f_alloc0;
          sp_counters = counters }
        :: t.done_rev

  let bump t name by =
    match t.stack with
    | [] -> ()  (* outside any span: nowhere to attribute it *)
    | f :: _ ->
      let cur = try Hashtbl.find f.f_counters name with Not_found -> 0 in
      Hashtbl.replace f.f_counters name (cur + by)
end

(* ------------------------------------------------------------------ *)
(* Ambient profiler: one ref read on every instrumentation point when
   disabled (the Transform.set_self_check precedent). *)

let current : Profiler.t option ref = ref None
let set_profiler p = current := p
let profiler () = !current
let enabled () = !current <> None

let with_profiler p f =
  let prev = !current in
  current := Some p;
  Fun.protect ~finally:(fun () -> current := prev) f

let span name f =
  match !current with
  | None -> f ()
  | Some p ->
    Profiler.open_span p name;
    Fun.protect ~finally:(fun () -> Profiler.close_span p) f

let count_by n name =
  match !current with None -> () | Some p -> Profiler.bump p name n

let count name = count_by 1 name

let set_clock m =
  match !current with None -> () | Some p -> Profiler.set_clock p m

let clock () =
  match !current with None -> 0. | Some p -> Profiler.clock p

let advance_clock d =
  match !current with
  | None -> ()
  | Some p -> Profiler.set_clock p (Profiler.clock p +. d)

(* ------------------------------------------------------------------ *)
(* Serialization: flat JSON lines through the telemetry codec, so the
   17-significant-digit float round trip is shared. Host fields are
   opt-in (non-deterministic by nature). *)

let host_requested () =
  match Sys.getenv_opt "S2FA_PROFILE_HOST" with
  | None | Some "0" | Some "" -> false
  | Some _ -> true

let span_to_json ?(host = false) (s : Profiler.span) =
  let open Json in
  obj
    ([ ("id", Int s.sp_id); ("parent", Int s.sp_parent);
       ("name", Str s.sp_name); ("vb", Num s.sp_vbegin);
       ("ve", Num s.sp_vend) ]
    @ (if host then
         [ ("wall_ns", Num s.sp_wall_ns);
           ("alloc_bytes", Num s.sp_alloc_bytes) ]
       else [])
    @ (("path", Str s.sp_path)
      :: List.map (fun (k, v) -> ("c." ^ k, Int v)) s.sp_counters))

let span_of_fields fields =
  try
    let counters =
      List.filter_map
        (fun (k, v) ->
          if String.length k > 2 && String.sub k 0 2 = "c." then
            match v with
            | Json.Jnum _ ->
              Some (String.sub k 2 (String.length k - 2), Json.get_int fields k)
            | _ -> raise Json.Bad
          else None)
        fields
      |> List.sort compare
    in
    let opt_float key =
      match Json.find fields key with
      | None -> 0.
      | Some _ -> Json.get_float fields key
    in
    Some
      { Profiler.sp_id = Json.get_int fields "id";
        sp_parent = Json.get_int fields "parent";
        sp_name = Json.get_str fields "name";
        sp_path = Json.get_str fields "path";
        sp_vbegin = Json.get_float fields "vb";
        sp_vend = Json.get_float fields "ve";
        sp_wall_ns = opt_float "wall_ns";
        sp_alloc_bytes = opt_float "alloc_bytes";
        sp_counters = counters }
  with Json.Bad -> None

let span_of_json line =
  match Json.parse_obj line with
  | fields -> span_of_fields fields
  | exception Json.Bad -> None

let write_jsonl ?(host = false) oc spans =
  List.iter
    (fun s ->
      output_string oc (span_to_json ~host s);
      output_char oc '\n')
    spans

let load_file path =
  Json.read_jsonl path (fun n fields ->
      match span_of_fields fields with
      | Some s -> s
      | None -> Json.bad_line n "not a span record")

(* ------------------------------------------------------------------ *)
(* Attribution: self time per span = its interval minus its direct
   children's intervals (clamped at zero against float noise). *)

let total (s : Profiler.span) = s.sp_vend -. s.sp_vbegin

let self_times spans =
  let child_sum = Hashtbl.create 64 in
  List.iter
    (fun (s : Profiler.span) ->
      if s.sp_parent >= 0 then
        let cur =
          try Hashtbl.find child_sum s.sp_parent with Not_found -> 0.
        in
        Hashtbl.replace child_sum s.sp_parent (cur +. total s))
    spans;
  List.map
    (fun (s : Profiler.span) ->
      let kids = try Hashtbl.find child_sum s.sp_id with Not_found -> 0. in
      (s, Float.max 0. (total s -. kids)))
    spans

let folded spans =
  let selfs = self_times spans in
  let by_path = Hashtbl.create 64 in
  let count_by_path = Hashtbl.create 64 in
  List.iter
    (fun ((s : Profiler.span), self) ->
      let cur = try Hashtbl.find by_path s.sp_path with Not_found -> 0. in
      Hashtbl.replace by_path s.sp_path (cur +. self);
      let n = try Hashtbl.find count_by_path s.sp_path with Not_found -> 0 in
      Hashtbl.replace count_by_path s.sp_path (n + 1))
    selfs;
  let rows =
    Hashtbl.fold
      (fun path v acc ->
        (path, int_of_float (Float.round (v *. 1e6))) :: acc)
      by_path []
    |> List.sort compare
  in
  (* Compile-only profiles (verify/fuzz) never advance the virtual
     clock; weight by span counts so the flamegraph still has area. *)
  if List.for_all (fun (_, w) -> w = 0) rows then
    List.map
      (fun (path, _) -> (path, Hashtbl.find count_by_path path))
      rows
  else rows

let write_folded oc spans =
  List.iter
    (fun (path, w) -> Printf.fprintf oc "%s %d\n" path w)
    (folded spans)

(* ------------------------------------------------------------------ *)
(* The [s2fa prof] report. *)

type agg = {
  mutable a_calls : int;
  mutable a_total : float;
  mutable a_self : float;
  mutable a_wall : float;
  mutable a_alloc : float;
  mutable a_counters : (string * int) list;
}

let merge_counters a b =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (k, v) ->
      let cur = try Hashtbl.find tbl k with Not_found -> 0 in
      Hashtbl.replace tbl k (cur + v))
    (a @ b);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let aggregate spans =
  let selfs = self_times spans in
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun ((s : Profiler.span), self) ->
      let a =
        match Hashtbl.find_opt tbl s.sp_path with
        | Some a -> a
        | None ->
          let a =
            { a_calls = 0; a_total = 0.; a_self = 0.; a_wall = 0.;
              a_alloc = 0.; a_counters = [] }
          in
          Hashtbl.add tbl s.sp_path a;
          order := s.sp_path :: !order;
          a
      in
      a.a_calls <- a.a_calls + 1;
      a.a_total <- a.a_total +. total s;
      a.a_self <- a.a_self +. self;
      a.a_wall <- a.a_wall +. s.sp_wall_ns;
      a.a_alloc <- a.a_alloc +. s.sp_alloc_bytes;
      a.a_counters <- merge_counters a.a_counters s.sp_counters)
    selfs;
  List.sort compare (List.rev_map (fun p -> (p, Hashtbl.find tbl p)) !order)

let leaf path =
  match String.rindex_opt path ';' with
  | None -> (0, path)
  | Some i ->
    let depth =
      String.fold_left (fun n c -> if c = ';' then n + 1 else n) 0 path
    in
    (depth, String.sub path (i + 1) (String.length path - i - 1))

let stage_of_span name =
  match String.index_opt name '.' with
  | None -> name
  | Some i -> String.sub name 0 i

let pp_counters ppf cs =
  match cs with
  | [] -> ()
  | cs ->
    Fmt.pf ppf "  [%a]"
      (Fmt.list ~sep:(Fmt.any " ") (fun ppf (k, v) -> Fmt.pf ppf "%s=%d" k v))
      cs

let print_report ?(top = 10) ppf spans =
  if spans = [] then Fmt.pf ppf "empty profile (no spans)@."
  else begin
    let aggs = aggregate spans in
    let has_host =
      List.exists (fun (s : Profiler.span) -> s.sp_wall_ns > 0.) spans
    in
    let grand_self =
      List.fold_left (fun acc (_, a) -> acc +. a.a_self) 0. aggs
    in
    let use_counts = grand_self <= 0. in
    let weight a = if use_counts then float_of_int a.a_calls else a.a_self in
    let grand =
      if use_counts then
        float_of_int (List.fold_left (fun n (_, a) -> n + a.a_calls) 0 aggs)
      else grand_self
    in
    let unit_name = if use_counts then "calls" else "vmin" in
    Fmt.pf ppf "== span tree (total/self %s%s) ==@."
      unit_name (if has_host then ", host wall ms / alloc MB" else "");
    List.iter
      (fun (path, a) ->
        let depth, name = leaf path in
        Fmt.pf ppf "%s%-*s %5d x  total %10.4f  self %10.4f"
          (String.make (2 * depth) ' ')
          (max 1 (34 - (2 * depth)))
          name a.a_calls a.a_total a.a_self;
        if has_host then
          Fmt.pf ppf "  wall %9.2f ms  alloc %8.2f MB" (a.a_wall /. 1e6)
            (a.a_alloc /. 1048576.);
        pp_counters ppf a.a_counters;
        Fmt.pf ppf "@.")
      aggs;
    (* Per-stage share: first dot-component of the span name, on self
       weight, so nested stages (hls under dse) attribute to the layer
       that actually did the work. *)
    let stages = Hashtbl.create 16 in
    List.iter
      (fun ((s : Profiler.span), self) ->
        let k = stage_of_span s.sp_name in
        let w = if use_counts then 1.0 else self in
        let cur = try Hashtbl.find stages k with Not_found -> 0. in
        Hashtbl.replace stages k (cur +. w))
      (self_times spans);
    let rows =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) stages []
      |> List.sort (fun (k1, v1) (k2, v2) -> compare (v2, k1) (v1, k2))
    in
    Fmt.pf ppf "@.== per-stage share (self %s) ==@." unit_name;
    List.iter
      (fun (k, v) ->
        Fmt.pf ppf "%-12s %10.4f  %5.1f%%@." k v
          (if grand > 0. then 100. *. v /. grand else 0.))
      rows;
    (* Hotspots: aggregated paths by self weight, descending. *)
    let hot =
      List.sort
        (fun (p1, a1) (p2, a2) -> compare (weight a2, p1) (weight a1, p2))
        aggs
    in
    Fmt.pf ppf "@.== top %d hotspots (self %s) ==@."
      (min top (List.length hot)) unit_name;
    List.iteri
      (fun i (path, a) ->
        if i < top then
          Fmt.pf ppf "%2d. %-52s %10.4f  %5.1f%%@." (i + 1) path (weight a)
            (if grand > 0. then 100. *. weight a /. grand else 0.))
      hot
  end
