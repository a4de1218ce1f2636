(* verify-sym: the sweep behind [s2fa verify --all --symbolic] — every
   step-1 loop of each kernel under tile-by-4, unroll-by-3 and 4-lane
   tree reduction, plus two random design points per kernel, each proved
   equivalent to the flat kernel by [Sym.equiv] at two tasks. Only the
   symbolic verifier runs in the timed part (the rewrites are built
   during set-up), and AES and S-W take nearly all of its time. *)

module W = S2fa_workloads.Workloads
module S2fa = S2fa_core.S2fa
module Sym = S2fa_sym.Sym
module Transform = S2fa_merlin.Transform
module Csyntax = S2fa_hlsc.Csyntax
module Cinterp = S2fa_hlsc.Cinterp
module Dspace = S2fa_dse.Dspace
module Space = S2fa_tuner.Space
module Fuzz = S2fa_fuzz.Fuzz
module Rng = S2fa_util.Rng
module M = Measure

type proof = {
  kernel : string;
  tag : string;
  flat : Csyntax.cprog;
  rewritten : Csyntax.cprog;
  caps : (string * int) list;
}

let tasks = 2

let chains = 2

let bindings = [ ("N", Cinterp.VI tasks) ]

let step1_loops (flat : Csyntax.cprog) =
  let lids = ref [] in
  List.iter
    (fun (f : Csyntax.cfunc) ->
      Csyntax.iter_loops
        (fun _ l -> if l.Csyntax.lstep = 1 then lids := l.Csyntax.lid :: !lids)
        f.Csyntax.cfbody)
    flat.Csyntax.cfuncs;
  List.rev !lids

let proofs_of laps ~seed (w : W.t) =
  let c = M.lap laps "workloads.compile_s" (fun () -> W.compile w) in
  let flat = c.S2fa.c_flat in
  let caps = Fuzz.scale_caps ~tasks c.S2fa.c_buffer_elems in
  let acc = ref [] in
  (* Rewrites the transform library refuses as illegal are skipped, as
     the CLI does. *)
  let try_t tag mk =
    let p, dt =
      M.time (fun () -> try Some (mk ()) with Transform.Transform_error _ -> None)
    in
    M.add laps "merlin.setup_s" dt;
    M.add laps "merlin.calls" 1.0;
    match p with
    | Some rewritten ->
      acc := { kernel = w.W.w_name; tag; flat; rewritten; caps } :: !acc
    | None -> ()
  in
  List.iter
    (fun lid ->
      try_t (Printf.sprintf "tile4@L%d" lid) (fun () ->
          Transform.apply
            { Transform.cfg_loops =
                [ ( lid,
                    { Transform.lc_tile = 4;
                      lc_parallel = 1;
                      lc_pipeline = Csyntax.PipeOff } ) ];
              cfg_bitwidths = [] }
            flat);
      try_t (Printf.sprintf "unroll3@L%d" lid) (fun () ->
          Transform.real_unroll ~factor:3 ~loop_id:lid flat);
      try_t (Printf.sprintf "reduce4@L%d" lid) (fun () ->
          Transform.tree_reduce ~lanes:4 ~loop_id:lid flat))
    (step1_loops flat);
  let ds = c.S2fa.c_dspace in
  let trng = Rng.create seed in
  for k = 1 to chains do
    try_t (Printf.sprintf "cfg%d" k) (fun () ->
        Transform.apply
          (Dspace.to_merlin ds (Space.random_cfg trng ds.Dspace.ds_space))
          flat)
  done;
  List.rev !acc

let setup ~seed ~smoke laps =
  let kernels =
    if smoke then List.filter_map W.find [ "PR"; "KMeans" ] else W.all
  in
  let proofs = List.concat_map (proofs_of laps ~seed) kernels in
  let sweep () =
    let per_kernel = M.laps () in
    let d = Buffer.create 4096 in
    let proved = ref 0 and nodes = ref 0 and steps = ref 0 and paths = ref 0 in
    let op_seconds =
      Array.of_list
        (List.map
           (fun p ->
             let v, dt =
               M.time (fun () ->
                   Sym.equiv ~bindings ~seed ~caps:p.caps p.flat p.rewritten
                     "kernel")
             in
             M.add per_kernel p.kernel dt;
             (match v with
             | Sym.Proved st ->
               incr proved;
               nodes := !nodes + st.Sym.pv_nodes;
               steps := !steps + st.Sym.pv_steps;
               paths := !paths + st.Sym.pv_paths;
               Printf.bprintf d "%s %s proved %d %d %d %d\n" p.kernel p.tag
                 st.Sym.pv_outputs st.Sym.pv_nodes st.Sym.pv_steps
                 st.Sym.pv_paths
             | Sym.Refuted cx ->
               Printf.eprintf "verify-sym: %s %s refuted: %s\n" p.kernel p.tag
                 cx.Sym.cx_detail;
               Printf.bprintf d "%s %s refuted\n" p.kernel p.tag
             | Sym.Unknown m ->
               Printf.eprintf "verify-sym: %s %s unknown: %s\n" p.kernel p.tag m;
               Printf.bprintf d "%s %s unknown\n" p.kernel p.tag);
             dt)
           proofs)
    in
    let n = List.length proofs in
    let seconds = Array.fold_left ( +. ) 0.0 op_seconds in
    ( { M.ops = n;
        failed = n - !proved;
        seconds;
        op_seconds;
        exact =
          [ ("proved_share", float_of_int !proved /. float_of_int (max 1 n)) ];
        digest = M.digest_of_buffer d },
      ("sym.equiv_s", seconds)
      :: List.map
           (fun (w : W.t) ->
             ("sym.equiv_s." ^ w.W.w_name, M.get per_kernel w.W.w_name))
           W.all
      @ [ ("sym.nodes", float_of_int !nodes);
          ("sym.steps", float_of_int !steps);
          ("sym.paths", float_of_int !paths);
          ("sym.nodes_per_s", float_of_int !nodes /. seconds) ] )
  in
  (* Timing each call is all the tracing this workload has: the traced
     unit is the same sweep, and its layers are the per-call timings. *)
  { M.unit_ = (fun () -> fst (sweep ()));
    traced = (fun ~untraced_s:_ -> sweep ()) }

let workload = { M.name = "verify-sym"; units = 3; setup }
