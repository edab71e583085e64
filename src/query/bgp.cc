#include "query/bgp.h"

#include "query/planner.h"

namespace hexastore {

namespace {

// Recursive index-nested-loop evaluation step. With a profile it also
// tallies the depth's probes, rows and inclusive wall time and checks the
// deadline; without one it reads no clock.
void EvalStep(const TripleStore& store, const CompiledBgp& bgp,
              const std::vector<std::size_t>& order, std::size_t depth,
              Binding* binding, const BindingSink& sink,
              QueryProfile* profile) {
  if (depth == order.size()) {
    sink(*binding);
    return;
  }
  const CompiledPattern& p = bgp.patterns[order[depth]];

  // Substitute constants and bound variables into the probe pattern.
  auto resolve = [&](const Slot& slot) -> Id {
    if (!slot.is_var()) {
      return slot.id;
    }
    return binding->Get(slot.var);  // kInvalidId when still unbound
  };
  IdPattern probe{resolve(p.s), resolve(p.p), resolve(p.o)};

  // Variables that this step newly binds (must be reset on backtrack).
  const bool bind_s = p.s.is_var() && !binding->IsBound(p.s.var);
  const bool bind_p = p.p.is_var() && !binding->IsBound(p.p.var);
  const bool bind_o = p.o.is_var() && !binding->IsBound(p.o.var);

  // Repeated-variable patterns like (?x, p, ?x) need an extra filter
  // because IdPattern cannot express equality between wildcards.
  auto consistent = [&](const IdTriple& t) {
    if (p.s.is_var() && p.o.is_var() && p.s.var == p.o.var && t.s != t.o) {
      return false;
    }
    if (p.s.is_var() && p.p.is_var() && p.s.var == p.p.var && t.s != t.p) {
      return false;
    }
    if (p.p.is_var() && p.o.is_var() && p.p.var == p.o.var && t.p != t.o) {
      return false;
    }
    return true;
  };

  PatternProfile* pp = nullptr;
  std::uint64_t scan_start = 0;
  if (profile != nullptr) {
    scan_start = obs::NowNanos();
    // Deadline check at the operator boundary: the clock was read anyway,
    // so an expired budget stops descending before issuing the scan. The
    // enclosing scans unwind through the same check (the flag short-
    // circuits Scan callbacks already in flight at shallower depths).
    if (profile->deadline_ns != 0 &&
        (profile->deadline_exceeded || scan_start >= profile->deadline_ns)) {
      profile->deadline_exceeded = true;
      return;
    }
    pp = &profile->patterns[depth];
    pp->probes += 1;
  }
  store.Scan(probe, [&](const IdTriple& t) {
    if (pp != nullptr) pp->rows_scanned += 1;
    if (!consistent(t)) {
      return;
    }
    if (pp != nullptr) pp->rows_emitted += 1;
    if (bind_s) binding->Set(p.s.var, t.s);
    if (bind_p) binding->Set(p.p.var, t.p);
    if (bind_o) binding->Set(p.o.var, t.o);
    EvalStep(store, bgp, order, depth + 1, binding, sink, profile);
    if (bind_s) binding->Unset(p.s.var);
    if (bind_p) binding->Unset(p.p.var);
    if (bind_o) binding->Unset(p.o.var);
  });
  if (pp != nullptr) {
    // Inclusive of deeper recursion (it runs inside the Scan callback);
    // RenderExplainAnalyze derives self time by subtracting depth+1.
    pp->wall_ns += obs::NowNanos() - scan_start;
  }
}

}  // namespace

void EvalBgp(const TripleStore& store, const CompiledBgp& bgp,
             const std::vector<std::size_t>& order, const BindingSink& sink,
             QueryProfile* profile) {
  if (bgp.trivially_empty) {
    return;
  }
  // Callers normally AttachPlan first; a bare profile still gets the
  // per-depth actuals keyed by the order's pattern indices.
  if (profile != nullptr && profile->patterns.size() != order.size()) {
    profile->patterns.resize(order.size());
    for (std::size_t d = 0; d < order.size(); ++d) {
      profile->patterns[d].pattern_index = order[d];
    }
  }
  Binding binding(bgp.vars.size());
  EvalStep(store, bgp, order, 0, &binding, sink, profile);
}

ResultSet EvalBgp(const TripleStore& store, const Dictionary& dict,
                  const std::vector<TriplePattern>& patterns,
                  QueryProfile* profile) {
  CompiledBgp bgp = CompileBgp(patterns, dict);
  ResultSet result;
  result.vars = bgp.vars;
  if (bgp.trivially_empty) {
    return result;
  }
  const BindingSink materialize = [&result](const Binding& b) {
    result.rows.push_back(b.values());
  };
  if (profile == nullptr) {
    std::vector<std::size_t> order = PlanBgp(store, bgp);
    EvalBgp(store, bgp, order, materialize);
    return result;
  }
  PlanProfile plan;
  const std::uint64_t plan_start = obs::NowNanos();
  std::vector<std::size_t> order = PlanBgp(store, bgp, &plan);
  profile->plan_ns += obs::NowNanos() - plan_start;
  AttachPlan(bgp, dict, plan, profile);
  const std::uint64_t eval_start = obs::NowNanos();
  EvalBgp(store, bgp, order, materialize, profile);
  profile->eval_ns += obs::NowNanos() - eval_start;
  profile->rows_out += result.rows.size();
  profile->total_ns = profile->parse_ns + profile->plan_ns +
                      profile->eval_ns;
  return result;
}

}  // namespace hexastore
