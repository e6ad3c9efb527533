open Ric_relational
open Ric_query

(* One pinned-atom probe: when a tuple lands in the probe's relation,
   unify it against [p_args]; on success, join the rest of the
   disjunct ([p_plan]) and check every resulting head tuple against
   the cached RHS.  Arguments, plan and head are encoded against one
   slot space, so a probe run is int unification plus a kernel join
   over persistent indexes.  One probe per atom occurrence of each
   normalized disjunct, so a new tuple matched at any position is
   found. *)
type probe = {
  p_args : int array;
  p_plan : Kernel.plan;
  p_head : int array;
}

(* [Delta] covers monotone LHS queries with a safe UCQ form: every
   answer new in [D + t] uses [t] in at least one atom position, so
   the probes enumerate exactly the delta of [q]; [disjuncts] are the
   whole-disjunct plans the full check runs.  Anything else (FP,
   non-monotone, unsafe) is [Full]: a full evaluation against the
   cached RHS, which raises exactly where the interpreted check
   does. *)
type body =
  | Delta of {
      disjuncts : (Kernel.plan * int array) list;
      probes : (string * probe) list;
    }
  | Full

(* What one CC checks when a tuple lands in a given relation. *)
type step_check =
  | Probes of probe array
  | Eval

type entry = {
  cc : Containment.t;
  rhs_cache : Relation.t;
  rhs_ids : Kernel.Rowset.t;
  body : body;
  steps : (string * step_check) list;
      (* per relation the LHS reads, what a tuple landing there checks;
         a [Delta] body lists only the relations it has probes for *)
}

type t = {
  entries : entry array;
  (* per relation, the CCs reading it in declaration order: a step
     costs one table lookup, and the cheap early-declared CCs (single
     inclusions, typically) prune before the wide joins run *)
  by_rel : (string, (entry * step_check) array) Hashtbl.t;
  empty_ok : bool;
  store : Kernel.Store.t;
}

let m_delta_checks =
  Ric_obs.Metrics.counter
    ~help:"constraint checks answered by an indexed delta probe"
    "ric_incremental_delta_checks_total"

let m_full_checks =
  Ric_obs.Metrics.counter
    ~help:"constraint checks that fell back to full LHS evaluation"
    "ric_incremental_full_checks_total"

exception Not_delta

let body_of_lhs lhs =
  if not (Lang.monotone lhs) then Full
  else
    match Lang.as_ucq lhs with
    | None -> Full
    | Some ucq ->
      (try
         let compiled =
           List.filter_map
             (fun cq ->
               match Cq.normalize cq with
               | None -> None (* statically unsatisfiable: contributes nothing *)
               | Some n ->
                 let avars = List.concat_map Atom.vars n.Cq.n_atoms in
                 let covered = function
                   | Term.Const _ -> true
                   | Term.Var x -> List.mem x avars
                 in
                 (* unsafe disjunct: let the full evaluator raise exactly
                    as the interpreted check would *)
                 if
                   not
                     (List.for_all covered n.Cq.n_head
                      && List.for_all
                           (fun (s, u) -> covered s && covered u)
                           n.Cq.n_neqs)
                 then raise Not_delta;
                 let whole = Kernel.compile n.Cq.n_atoms n.Cq.n_neqs in
                 let probes =
                   List.mapi
                     (fun i (a : Atom.t) ->
                       let rest = List.filteri (fun j _ -> j <> i) n.Cq.n_atoms in
                       let p_plan =
                         Kernel.compile ~extra_vars:(Atom.vars a) rest n.Cq.n_neqs
                       in
                       ( a.Atom.rel,
                         {
                           p_args = Kernel.encode_terms p_plan a.Atom.args;
                           p_plan;
                           p_head = Kernel.encode_terms p_plan n.Cq.n_head;
                         } ))
                     n.Cq.n_atoms
                 in
                 Some ((whole, Kernel.encode_terms whole n.Cq.n_head), probes))
             ucq
         in
         Delta
           {
             disjuncts = List.map fst compiled;
             probes = List.concat_map snd compiled;
           }
       with Not_delta -> Full)

let steps_of body lhs =
  List.filter_map
    (fun rel ->
      match body with
      | Full -> Some (rel, Eval)
      | Delta { probes; _ } ->
        (match
           List.filter_map
             (fun (r, p) -> if String.equal r rel then Some p else None)
             probes
         with
         | [] -> None
         | ps -> Some (rel, Probes (Array.of_list ps))))
    (List.sort_uniq String.compare (Lang.relations lhs))

let create ~schema ~master ccs =
  (* CCs bounding several columns by one master registry share its
     projection: evaluate and intern each distinct RHS once *)
  let rhs_memo = Hashtbl.create 8 in
  let rhs_of (p : Projection.t) =
    match Hashtbl.find_opt rhs_memo p with
    | Some r -> r
    | None ->
      let rel = Projection.eval master p in
      let r = (rel, Kernel.Rowset.of_relation rel) in
      Hashtbl.replace rhs_memo p r;
      r
  in
  let entries =
    Array.of_list
      (List.map
         (fun (cc : Containment.t) ->
           let rhs_cache, rhs_ids = rhs_of cc.Containment.rhs in
           let body = body_of_lhs cc.Containment.lhs in
           { cc; rhs_cache; rhs_ids; body; steps = steps_of body cc.Containment.lhs })
         ccs)
  in
  let lists = Hashtbl.create 16 in
  (* walk the CCs last-first so consing leaves declaration order *)
  for i = Array.length entries - 1 downto 0 do
    let e = entries.(i) in
    List.iter
      (fun (rel, c) ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt lists rel) in
        Hashtbl.replace lists rel ((e, c) :: prev))
      e.steps
  done;
  let by_rel = Hashtbl.create 16 in
  Hashtbl.iter (fun rel l -> Hashtbl.replace by_rel rel (Array.of_list l)) lists;
  let empty_ok =
    try
      Array.for_all
        (fun e ->
          Relation.subset
            (Lang.eval (Database.empty schema) e.cc.Containment.lhs)
            e.rhs_cache)
        entries
    with Invalid_argument _ -> false
  in
  { entries; by_rel; empty_ok; store = Kernel.Store.create () }

let empty_ok t = t.empty_ok

let lookup db rel =
  try Database.relation db rel with Not_found -> Relation.empty

(* [on_match] for a kernel run: does this answer escape the RHS? *)
let escapes rhs_ids head regs =
  match Kernel.term_ids head regs with
  | Some ids -> not (Kernel.Rowset.mem rhs_ids ids)
  | None -> false

let entry_holds_full (t : t) ~db e =
  Ric_obs.Metrics.incr m_full_checks;
  match e.body with
  | Full -> Relation.subset (Lang.eval db e.cc.Containment.lhs) e.rhs_cache
  | Delta { disjuncts; _ } ->
    not
      (List.exists
         (fun (plan, head) ->
           Kernel.run t.store ~lookup:(lookup db) plan (escapes e.rhs_ids head))
         disjuncts)

(* Interned overlay rows per relation, built at most once per step and
   shared by every probe of every CC; deltas are a handful of
   tuples. *)
let overlay delta =
  let cache = ref [] in
  fun rel ->
    let rec find = function
      | [] ->
        let rows =
          match Database.relation delta rel with
          | r ->
            Array.of_list (Relation.fold (fun tu acc -> Intern.row tu :: acc) r [])
          | exception Not_found -> [||]
        in
        cache := (rel, rows) :: !cache;
        rows
      | (r, rows) :: rest -> if String.equal r rel then rows else find rest
    in
    find !cache

(* Does the probe's pinned atom, bound to the interned [row], join
   into an answer that escapes the RHS?  The rest of the disjunct is
   joined over [base]'s persistent indexes with the overlay rows. *)
let probe_escapes (t : t) ~lookup ~extra rhs_ids row p =
  let regs = Kernel.regs p.p_plan in
  (* a tuple that does not match this atom position adds nothing *)
  Kernel.unify_encoded p.p_args row regs
  && Kernel.run t.store ~lookup ~extra ~regs p.p_plan (escapes rhs_ids p.p_head)

(* The first CC (in declaration order) that [tuple]'s insertion into
   [rel] violates.  Probes pin the interned tuple onto one atom and
   join the rest over [base]'s persistent indexes with [delta]'s
   interned rows as an overlay; [base ∪ delta] must be the
   post-insertion database.  Overlay rows also present in [base] may
   be enumerated twice, which is harmless for this existence-style
   check.  [db] is what full evaluations see. *)
let first_violation (t : t) ~base ~delta ~db ~rel ~tuple =
  match Hashtbl.find_opt t.by_rel rel with
  | None -> None (* no CC reads [rel] *)
  | Some checks ->
    let row = Intern.row tuple in
    let extra = overlay delta in
    let lookup = lookup base in
    let probed = ref 0 in
    let holds (e, check) =
      match check with
      | Eval -> entry_holds_full t ~db e
      | Probes ps ->
        incr probed;
        not (Array.exists (probe_escapes t ~lookup ~extra e.rhs_ids row) ps)
    in
    let n = Array.length checks in
    let rec first i =
      if i = n then None
      else if holds checks.(i) then first (i + 1)
      else Some (fst checks.(i))
    in
    let r = first 0 in
    if !probed > 0 then Ric_obs.Metrics.add m_delta_checks !probed;
    r

let check_add_overlay t ~base ~delta ~db ~rel ~tuple =
  Option.is_none (first_violation t ~base ~delta ~db ~rel ~tuple)

let check_add_overlay_explain t ~base ~delta ~db ~rel ~tuple =
  Option.map
    (fun e -> e.cc.Containment.cc_name)
    (first_violation t ~base ~delta ~db ~rel ~tuple)

let first_violated t ~db =
  Array.find_opt (fun e -> not (entry_holds_full t ~db e)) t.entries
  |> Option.map (fun e -> e.cc)

let full t ~db = Option.is_none (first_violated t ~db)

(* Every answer new in [base ∪ delta] uses some [delta] tuple in some
   atom position, so probing each delta tuple at each position (with
   all of [delta] as the overlay) covers the whole difference.  The
   overlay is interned once for the batch.  A CC reading no grown
   relation still holds by the parent invariant. *)
let first_violated_delta (t : t) ~base ~delta ~db =
  let extra = overlay delta in
  let lookup = lookup base in
  let probed = ref 0 in
  let grown (rel, _) = Array.length (extra rel) > 0 in
  let holds e =
    match e.body with
    | Full -> (not (List.exists grown e.steps)) || entry_holds_full t ~db e
    | Delta _ ->
      List.for_all
        (fun (rel, check) ->
          match check with
          | Eval -> true (* listed for [Full] bodies only *)
          | Probes ps ->
            Array.for_all
              (fun row ->
                incr probed;
                not (Array.exists (probe_escapes t ~lookup ~extra e.rhs_ids row) ps))
              (extra rel))
        e.steps
  in
  let r = Array.find_opt (fun e -> not (holds e)) t.entries in
  if !probed > 0 then Ric_obs.Metrics.add m_delta_checks !probed;
  Option.map (fun e -> e.cc) r
