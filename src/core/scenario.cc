#include "src/core/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

#include "src/core/scenario_fields.h"
#include "src/hw/catalog.h"
#include "src/util/flags.h"

namespace litegpu {

namespace {

// --- the study table ------------------------------------------------------

// How a study treats the scenario's models or gpus list.
enum class ListRule {
  kSet,   // any number of names; an empty list means the study's canonical set
  kOne,   // exactly one name; an empty list means the study's default
  kNone,  // no list accepted
};

template <typename Specs>
std::vector<std::string> NamesOf(const Specs& specs) {
  std::vector<std::string> names;
  for (const auto& spec : specs) {
    names.push_back(spec.name);
  }
  return names;
}

std::vector<std::string> JustH100(const Scenario&) { return {H100().name}; }
std::vector<std::string> Fig3aLineup(const Scenario&) {
  return NamesOf(std::vector<GpuSpec>{H100(), Lite(), LiteNetBw(), LiteNetBwFlops()});
}
std::vector<std::string> Fig3bLineup(const Scenario&) {
  return NamesOf(std::vector<GpuSpec>{H100(), Lite(), LiteMemBw(), LiteMemBwNetBw()});
}
std::vector<std::string> Table1Lineup(const Scenario&) { return NamesOf(Table1Configs()); }
// The candidates carry their own base parts; the resolved list is the
// distinct bases, so the generic unknown-GPU check covers them.
std::vector<std::string> CandidateBases(const Scenario& s) {
  std::vector<std::string> names;
  for (const FleetCandidate& c : s.fleet.candidates) {
    if (std::find(names.begin(), names.end(), c.gpu) == names.end()) {
      names.push_back(c.gpu);
    }
  }
  return names;
}

// One row per StudyKind, in enum order. An empty models list resolves by
// its rule alone: the three case-study models for kSet, Llama3-70B for kOne
// (the serving simulations run one model end to end), none for kNone.
struct Study {
  StudyKind kind;
  std::string_view name;
  bool perf_search;  // reads the workload block and runs the perf search
  ListRule models;
  ListRule gpus;
  // What an empty gpus list resolves to; null for a study that reads no GPU.
  std::vector<std::string> (*default_gpus)(const Scenario&);
};

constexpr Study kStudies[] = {
    {StudyKind::kSearch, "search", true, ListRule::kSet, ListRule::kSet, JustH100},
    {StudyKind::kFig3a, "fig3a", true, ListRule::kSet, ListRule::kSet, Fig3aLineup},
    {StudyKind::kFig3b, "fig3b", true, ListRule::kSet, ListRule::kSet, Fig3bLineup},
    {StudyKind::kDesign, "design", true, ListRule::kSet, ListRule::kSet, Table1Lineup},
    {StudyKind::kMcSim, "mcsim", false, ListRule::kNone, ListRule::kOne, JustH100},
    {StudyKind::kYield, "yield", false, ListRule::kNone, ListRule::kNone, nullptr},
    {StudyKind::kDerive, "derive", false, ListRule::kNone, ListRule::kNone, nullptr},
    {StudyKind::kServe, "serve", true, ListRule::kOne, ListRule::kOne, JustH100},
    {StudyKind::kServeSweep, "serve-sweep", true, ListRule::kOne, ListRule::kOne, JustH100},
    {StudyKind::kFleetCompare, "fleet-compare", true, ListRule::kOne, ListRule::kNone,
     CandidateBases},
};

constexpr bool RowsInEnumOrder() {
  for (size_t i = 0; i < std::size(kStudies); ++i) {
    if (static_cast<size_t>(kStudies[i].kind) != i) {
      return false;
    }
  }
  return true;
}
static_assert(RowsInEnumOrder(), "kStudies is indexed by StudyKind");

const Study& StudyOf(StudyKind kind) { return kStudies[static_cast<size_t>(kind)]; }

}  // namespace

std::string ToString(StudyKind kind) {
  return static_cast<size_t>(kind) < std::size(kStudies) ? std::string(StudyOf(kind).name)
                                                         : "unknown";
}

std::optional<StudyKind> ParseStudyKind(const std::string& name) {
  for (const Study& study : kStudies) {
    if (name == study.name) {
      return study.kind;
    }
  }
  return std::nullopt;
}

namespace {

// --- generic field-table code (the rows live in scenario_fields.h) --------

// The knob struct a table's rows point into. Used as a parameter type it is
// a non-deduced context, so a derived block (ServeKnobs) can be passed where
// its base's table (ServeCommonKnobs) is read or written.
template <typename Table>
using StructOf = typename std::tuple_element_t<0, Table>::Struct;

// Calls fn(row) for each row in table order until one returns false.
template <typename Table, typename Fn>
bool AllRows(const Table& table, Fn&& fn) {
  return std::apply([&](const auto&... row) { return (fn(row) && ...); }, table);
}

// Splits an enum row's '|'-separated spellings; index = enum value.
std::vector<std::string> EnumNames(const char* names) {
  std::vector<std::string> out;
  std::string_view rest(names);
  for (size_t bar = rest.find('|'); bar != std::string_view::npos; bar = rest.find('|')) {
    out.emplace_back(rest.substr(0, bar));
    rest.remove_prefix(bar + 1);
  }
  out.emplace_back(rest);
  return out;
}

std::string Label(const std::string& where, std::string_view key) {
  return where.empty() ? std::string(key) : where + "." + std::string(key);
}

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) {
    *error = std::move(message);
  }
  return false;
}

// A present key with the wrong JSON type is an error — a mistyped value must
// not silently fall back to the default.
bool TypeError(std::string_view key, const std::string& where, const char* expected,
               std::string* error) {
  return Fail(error, "'" + std::string(key) + "' in " + where + " must be " + expected);
}

// Strict readers for one value, by member type. Integer rows take only
// integral numbers that fit (8.0 and 1e3 parse; 2.6 and 2^32 + 1 do not);
// a uint64 row reads a digits-only value exactly, above 2^53 too.
bool ReadValue(const Json& v, std::string_view key, const std::string& where, double& out,
               std::string* error) {
  if (v.type() != Json::Type::kNumber) {
    return TypeError(key, where, "a number", error);
  }
  out = v.AsDouble();
  return true;
}

bool ReadValue(const Json& v, std::string_view key, const std::string& where, int& out,
               std::string* error) {
  const double d = v.AsDouble();
  if (v.type() != Json::Type::kNumber) {
    return TypeError(key, where, "a number", error);
  }
  if (std::trunc(d) != d || d < std::numeric_limits<int>::min() ||
      d > std::numeric_limits<int>::max()) {
    return TypeError(key, where, "an integer in [-2^31, 2^31)", error);
  }
  out = static_cast<int>(d);
  return true;
}

bool ReadValue(const Json& v, std::string_view key, const std::string& where, uint64_t& out,
               std::string* error) {
  const double d = v.AsDouble();
  if (v.type() != Json::Type::kNumber) {
    return TypeError(key, where, "a number", error);
  }
  if (!v.is_uint64() && (std::trunc(d) != d || d < 0.0 || d >= 0x1p64)) {
    return TypeError(key, where, "an integer in [0, 2^64)", error);
  }
  out = v.AsUint64();
  return true;
}

bool ReadValue(const Json& v, std::string_view key, const std::string& where, bool& out,
               std::string* error) {
  if (v.type() != Json::Type::kBool) {
    return TypeError(key, where, "true or false", error);
  }
  out = v.AsBool();
  return true;
}

bool ReadValue(const Json& v, std::string_view key, const std::string& where, std::string& out,
               std::string* error) {
  if (v.type() != Json::Type::kString) {
    return TypeError(key, where, "a string", error);
  }
  out = v.AsString();
  return true;
}

bool ReadValue(const Json& v, std::string_view key, const std::string& where,
               std::vector<double>& out, std::string* error) {
  std::vector<double> list;
  for (const Json& e : v.elements()) {
    if (e.type() != Json::Type::kNumber) {
      break;
    }
    list.push_back(e.AsDouble());
  }
  if (!v.is_array() || list.size() != v.elements().size()) {
    return TypeError(key, where, "an array of numbers", error);
  }
  out = std::move(list);
  return true;
}

// An enum value: the index of its spelling in `names`, with a did-you-mean
// hint for a misspelling.
bool ReadEnumIndex(const Json& v, std::string_view key, const char* names,
                   const std::string& where, int& out, std::string* error) {
  if (v.type() != Json::Type::kString) {
    return TypeError(key, where, "a string", error);
  }
  std::vector<std::string> spellings = EnumNames(names);
  auto it = std::find(spellings.begin(), spellings.end(), v.AsString());
  if (it == spellings.end()) {
    std::string noun(key);
    std::replace(noun.begin(), noun.end(), '_', ' ');
    std::string message = "unknown " + noun + " '" + v.AsString() + "' in " +
                          Label(where, key) + " (expected " + names;
    std::string best = ClosestCandidate(v.AsString(), spellings);
    if (!best.empty()) {
      message += "; did you mean '" + best + "'?";
    }
    return Fail(error, message + ")");
  }
  out = static_cast<int>(it - spellings.begin());
  return true;
}

template <typename S, typename T>
bool ReadField(const Json& v, const Field<S, T>& row, const std::string& where, S& out,
               std::string* error) {
  if constexpr (std::is_enum_v<T>) {
    int index = 0;
    if (!ReadEnumIndex(v, row.name, row.enum_names, where, index, error)) {
      return false;
    }
    out.*row.member = static_cast<T>(index);
    return true;
  } else {
    return ReadValue(v, row.name, where, out.*row.member, error);
  }
}

// Reads every row whose key is present; absent keys keep their defaults.
template <typename Table>
bool ReadFields(const Json& obj, const std::string& where, const Table& table,
                StructOf<Table>& out, std::string* error) {
  for (const auto& [key, value] : obj.members()) {
    if (!AllRows(table, [&](const auto& row) {
          return key != row.name || ReadField(value, row, where, out, error);
        })) {
      return false;
    }
  }
  return true;
}

// Key sources for CheckKeys: a field table, or a list of nested-block keys.
template <size_t N, typename Fn>
bool AnyKey(const std::string_view (&keys)[N], Fn&& fn) {
  return std::any_of(std::begin(keys), std::end(keys), fn);
}
template <typename... Rows, typename Fn>
bool AnyKey(const std::tuple<Rows...>& table, Fn&& fn) {
  return std::apply([&](const auto&... row) { return (fn(row.name) || ...); }, table);
}

// Fails on a key no source names, so scenario-file typos surface instead of
// silently falling back to defaults — with the did-you-mean hint unknown
// CLI flags get.
template <typename... Sources>
bool CheckKeys(const Json& obj, const std::string& where, std::string* error,
               const Sources&... sources) {
  for (const auto& member : obj.members()) {
    const std::string& key = member.first;
    auto is_key = [&key](std::string_view name) { return key == name; };
    if ((AnyKey(sources, is_key) || ...)) {
      continue;
    }
    std::vector<std::string> known;
    auto collect = [&known](std::string_view name) {
      known.emplace_back(name);
      return false;  // visit every key
    };
    (AnyKey(sources, collect), ...);
    std::string message = "unknown key '" + key + "' in " + where;
    std::string best = ClosestCandidate(key, known);
    if (!best.empty()) {
      message += " (did you mean '" + best + "'?)";
    }
    return Fail(error, message);
  }
  return true;
}

// A flat block: an object holding only the table's keys.
template <typename Table>
bool ReadBlock(const Json& obj, const std::string& where, const Table& table,
               StructOf<Table>& out, std::string* error) {
  if (!obj.is_object()) {
    return Fail(error, where + " must be an object");
  }
  return CheckKeys(obj, where, error, table) && ReadFields(obj, where, table, out, error);
}

template <typename Table>
bool FieldsAreDefault(const Table& table, const StructOf<Table>& knobs) {
  const StructOf<Table> defaults{};
  return AllRows(table,
                 [&](const auto& row) { return knobs.*row.member == defaults.*row.member; });
}

// Writers for one value, by member type; enums write their spelling.
void SetValue(Json& j, std::string_view key, const std::vector<double>& value, const char*) {
  Json arr = Json::Array();
  for (double x : value) {
    arr.Append(x);
  }
  j.Set(std::string(key), std::move(arr));
}
template <typename T>
void SetValue(Json& j, std::string_view key, const T& value, const char* enum_names) {
  if constexpr (std::is_enum_v<T>) {
    j.Set(std::string(key), EnumNames(enum_names).at(static_cast<size_t>(value)));
  } else {
    j.Set(std::string(key), value);
  }
}

// Writes the rows in table order, skipping the rows their Emit rule gates.
template <typename Table>
void WriteFields(Json& j, const Table& table, const StructOf<Table>& knobs) {
  const StructOf<Table> defaults{};
  AllRows(table, [&](const auto& row) {
    const auto& value = knobs.*row.member;
    using T = std::decay_t<decltype(value)>;
    if (row.emit == Emit::kIfChanged && value == defaults.*row.member) {
      return true;
    }
    if constexpr (std::is_same_v<T, int>) {
      if (row.emit == Emit::kIfAboveOne && value <= 1) {
        return true;
      }
    }
    SetValue(j, row.name, value, row.enum_names);
    return true;
  });
}

template <typename Table>
Json FieldsToJson(const Table& table, const StructOf<Table>& knobs) {
  Json j = Json::Object();
  WriteFields(j, table, knobs);
  return j;
}

template <typename Table>
Json BlockListToJson(const Table& table, const std::vector<StructOf<Table>>& list) {
  Json arr = Json::Array();
  for (const auto& item : list) {
    arr.Append(FieldsToJson(table, item));
  }
  return arr;
}

// A row whose value broke its range, as CheckFields reports it.
struct BadRow {
  std::string_view name;
  FieldRange range;
  bool finite = false;  // double rows: "... and finite"
  bool list = false;    // list rows: "<key> entries must be ..."
};

template <typename S, typename T>
bool NoteBadRow(const Field<S, T>& row, BadRow& bad) {
  bad = {row.name, row.range, !std::is_same_v<T, int>, std::is_same_v<T, std::vector<double>>};
  return false;
}

// "<where>.<key> must be positive and finite", "... must be in (0, 1]",
// "... entries must be >= 0 and finite", "... must be >= 0 (0 =
// auto-size)", ...
std::string RangeProblem(const std::string& where, const BadRow& bad) {
  auto num = [](double x) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", x);
    return std::string(buf);
  };
  const FieldRange& r = bad.range;
  const double inf = std::numeric_limits<double>::infinity();
  std::string rule;
  if (r.hi != inf) {
    rule = std::string("in ") + (r.lo_open ? "(" : "[") + num(r.lo) + ", " + num(r.hi) + "]";
  } else if (r.lo_open) {
    rule = "positive";  // Positive(): (0, inf)
  } else if (r.lo != -inf) {
    rule = ">= " + num(r.lo);
  }
  if (bad.finite && r.hi == inf) {
    rule += rule.empty() ? "finite" : " and finite";
  }
  std::string message =
      Label(where, bad.name) + (bad.list ? " entries" : "") + " must be " + rule;
  if (r.note != nullptr) {
    message += std::string(" (") + r.note + ")";
  }
  return message;
}

// NaN fails every comparison, so it is out of any range.
bool InRange(double v, const FieldRange& r, bool finite) {
  return (r.lo_open ? v > r.lo : v >= r.lo) && v <= r.hi && (!finite || std::isfinite(v));
}

// Whether a row's value (every entry, for a list) satisfies its range;
// double values must also be finite. Other types have no range.
template <typename S, typename T>
bool RowInRange(const Field<S, T>& row, const S& knobs) {
  const T& value = knobs.*row.member;
  if constexpr (std::is_same_v<T, double> || std::is_same_v<T, int>) {
    return InRange(value, row.range, std::is_same_v<T, double>);
  } else if constexpr (std::is_same_v<T, std::vector<double>>) {
    return std::all_of(value.begin(), value.end(),
                       [&](double x) { return InRange(x, row.range, true); });
  } else {
    return true;
  }
}

// The first row whose value breaks its range, if any.
template <typename Table>
std::optional<BadRow> FirstBadRow(const Table& table, const StructOf<Table>& knobs) {
  BadRow bad;
  AllRows(table,
          [&](const auto& row) { return RowInRange(row, knobs) || NoteBadRow(row, bad); });
  return bad.name.empty() ? std::nullopt : std::optional<BadRow>(bad);
}

// The first range violation labelled under `where` ("" when every row holds).
template <typename Table>
std::string CheckFields(const Table& table, const StructOf<Table>& knobs,
                        const std::string& where) {
  std::optional<BadRow> bad = FirstBadRow(table, knobs);
  return bad ? RangeProblem(where, *bad) : std::string();
}

// Calls fn with the key set of arrival kind `kind`.
template <typename Fn>
decltype(auto) WithArrivalFields(ArrivalKind kind, Fn&& fn) {
  switch (kind) {
    case ArrivalKind::kDiurnal:
      return fn(kDiurnalFields);
    case ArrivalKind::kOnOff:
      return fn(kOnOffFields);
    case ArrivalKind::kTrace:
      return fn(kTraceFields);
    case ArrivalKind::kPoisson:
      break;
  }
  return fn(kPoissonFields);
}

}  // namespace

std::string ToString(AutoscalerPolicy policy) {
  return EnumNames(kAutoscalerPolicyNames).at(static_cast<size_t>(policy));
}

std::vector<double> ExpandGridRange(double lo, double hi, double step) {
  std::vector<double> grid;
  if (!std::isfinite(lo) || !std::isfinite(hi) || !std::isfinite(step) || step <= 0.0 ||
      hi < lo) {
    return grid;
  }
  // Integer stepping avoids accumulated float drift dropping the endpoint;
  // the epsilon admits hi itself when (hi - lo) is a near-exact multiple.
  // The cap keeps a degenerate step from expanding into a multi-GB vector
  // (or overflowing the int cast, which is UB); 1e6 points is far past any
  // sweep a study could run, so over-cap ranges report as an empty grid.
  double count_minus_one = (hi - lo) / step + 1e-9;
  if (count_minus_one >= 1e6) {
    return grid;
  }
  int count = static_cast<int>(count_minus_one) + 1;
  grid.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    grid.push_back(lo + i * step);
  }
  return grid;
}

ClassMixSummary SummarizeClassMix(const std::vector<RequestClass>& classes) {
  ClassMixSummary mix;
  double total_weight = 0.0;
  for (const RequestClass& cls : classes) {
    total_weight += cls.weight;
  }
  if (total_weight <= 0.0) {
    mix.shares.assign(classes.size(), 0.0);
    return mix;
  }
  mix.shares.reserve(classes.size());
  for (const RequestClass& cls : classes) {
    double share = cls.weight / total_weight;
    mix.shares.push_back(share);
    mix.mean_prompt_tokens += share * cls.prompt_tokens;
    mix.mean_output_tokens += share * cls.output_tokens;
  }
  return mix;
}

namespace {

// The first problem of a class mix ("" when it is valid, possibly empty =
// single-class mode): empty/duplicate names, non-positive or non-finite
// weights, non-positive lengths, negative sigmas or SLOs.
std::string ValidateRequestClasses(const std::vector<RequestClass>& classes,
                                   const std::string& where) {
  for (size_t i = 0; i < classes.size(); ++i) {
    const RequestClass& cls = classes[i];
    auto label = [&] { return where + ".classes[" + std::to_string(i) + "]"; };
    if (cls.name.empty()) {
      return label() + " needs a non-empty name";
    }
    for (size_t j = 0; j < i; ++j) {
      if (classes[j].name == cls.name) {
        return where + ".classes has duplicate name '" + cls.name + "'";
      }
    }
    if (std::optional<BadRow> bad = FirstBadRow(kRequestClassFields, cls)) {
      return RangeProblem(label(), *bad);
    }
    if (cls.ttft_slo_s < 0.0 || cls.tbt_slo_s < 0.0) {
      return label() + " ('" + cls.name + "') SLOs must be >= 0 (0 = inherit)";
    }
  }
  return "";
}

// The first reason the arrival process cannot be generated: an empty or
// negative diurnal curve, non-positive phase means, unsorted trace times, ...
std::string ValidateArrivalProcess(const ArrivalProcess& process, const std::string& where) {
  if (std::string problem = WithArrivalFields(
          process.kind,
          [&](const auto& table) { return CheckFields(table, process, where); });
      !problem.empty()) {
    return problem;
  }
  switch (process.kind) {
    case ArrivalKind::kPoisson:
      return "";
    case ArrivalKind::kDiurnal:
      if (process.multipliers.empty()) {
        return where + ".multipliers must be a non-empty rate curve";
      }
      if (*std::max_element(process.multipliers.begin(), process.multipliers.end()) <= 0.0) {
        return where + ".multipliers must contain at least one positive point";
      }
      return "";
    case ArrivalKind::kOnOff:
      if (process.on_multiplier <= 0.0 && process.off_multiplier <= 0.0) {
        return where + " needs a positive on_multiplier or off_multiplier";
      }
      return "";
    case ArrivalKind::kTrace:
      if (process.times_s.empty()) {
        return where + ".times_s must be a non-empty ascending list of arrival times";
      }
      if (!std::is_sorted(process.times_s.begin(), process.times_s.end())) {
        return where + ".times_s must be ascending";
      }
      return "";
  }
  return "";
}

// The first problem of an enabled autoscaler block: a non-positive
// interval, a negative delay, inverted bounds or thresholds.
std::string ValidateAutoscalerKnobs(const AutoscalerKnobs& knobs, const std::string& where) {
  if (!knobs.enabled()) {
    return "";
  }
  if (std::string problem = CheckFields(kAutoscalerFields, knobs, where); !problem.empty()) {
    return problem;
  }
  if (knobs.max_prefill_instances < knobs.min_prefill_instances ||
      knobs.max_decode_instances < knobs.min_decode_instances) {
    return where + " instance bounds need max >= min";
  }
  if (knobs.scale_down_utilization >= knobs.scale_up_utilization) {
    return where + ".scale_down_utilization must be below scale_up_utilization";
  }
  return "";
}

}  // namespace

std::string ValidateFaultKnobs(const FaultKnobs& knobs, const std::string& where) {
  // Validated even at afr 0: a disabled block with a nonsense MTTR is a
  // latent mistake that would only surface when someone turns faults on.
  if (std::string problem = CheckFields(kFaultFields, knobs, where); !problem.empty()) {
    return problem;
  }
  if (knobs.hot_spares > 0 &&
      knobs.spare_activation_minutes >= knobs.mttr_hours * 60.0) {
    // Activation at or beyond the repair time silently degenerates to the
    // no-spare path (the spare never saves any downtime); reject it as a
    // latent mistake rather than letting the knob read as a no-op.
    return where + ".spare_activation_minutes must be < mttr_hours * 60 "
                   "(a slower-than-repair spare never activates)";
  }
  if (knobs.retry_policy == FaultRetryPolicy::kRetryWithBudget &&
      knobs.retry_budget < 1) {
    return where + ".retry_budget must be >= 1 under retry_with_budget";
  }
  if (knobs.domain_afr > 0.0 && !(knobs.domain_gpus > 0.0)) {
    return where + ".domain_afr requires domain_gpus > 0 (the domain size)";
  }
  if (knobs.degrade_afr > 0.0 &&
      (!(knobs.degrade_multiplier > 1.0) || !(knobs.degrade_minutes > 0.0))) {
    return where + ".degrade_afr requires degrade_multiplier > 1 and degrade_minutes > 0";
  }
  return "";
}

namespace {

// The per-point knobs shared by the serve and sweep blocks validate once,
// here — `where` picks the block name in messages.
std::string ValidateServeCommonKnobs(const ServeCommonKnobs& knobs,
                                     const std::string& where) {
  // Non-finite horizons are rejected too (a NaN/inf horizon would spin the
  // workload generator forever).
  if (std::string problem = CheckFields(kServeCommonFields, knobs, where); !problem.empty()) {
    return problem;
  }
  if (std::string problem = ValidateArrivalProcess(knobs.arrival, where + ".arrival");
      !problem.empty()) {
    return problem;
  }
  if (std::string problem =
          ValidateAutoscalerKnobs(knobs.autoscaler, where + ".autoscaler");
      !problem.empty()) {
    return problem;
  }
  if (knobs.autoscaler.enabled() && knobs.autoscaler.delay_s > knobs.horizon_s) {
    // A scale-up landing after the horizon can never serve an admission,
    // and an unbounded delay would schedule it at an unbounded time.
    return where + ".autoscaler.delay_s must be <= " + where + ".horizon_s";
  }
  if (std::string problem = ValidateFaultKnobs(knobs.faults, where + ".faults");
      !problem.empty()) {
    return problem;
  }
  if (std::string problem = CheckFields(kServeShardFields, knobs, where); !problem.empty()) {
    return problem;
  }
  if (knobs.shards >= 2) {
    // Shards are independent replications of the same stationary process;
    // anything whose behavior depends on absolute time across the horizon
    // would be distorted by splitting it.
    if (knobs.autoscaler.enabled()) {
      return where + ".shards requires the autoscaler to be disabled";
    }
    if (knobs.faults.enabled()) {
      return where + ".shards requires faults to be disabled";
    }
    if (knobs.faults.shed_queue_depth > 0 || knobs.faults.shed_ttft_deadline_s > 0.0) {
      // Shedding reacts to the instantaneous queue depth, which splitting
      // the horizon would reset at every shard boundary.
      return where + ".shards requires load shedding to be disabled";
    }
    if (knobs.arrival.kind == ArrivalKind::kDiurnal ||
        knobs.arrival.kind == ArrivalKind::kTrace) {
      return where + ".shards requires a stationary arrival process (poisson or onoff)";
    }
  }
  return ValidateRequestClasses(knobs.classes, where);
}

// The load-grid checks the sweep and fleet blocks share. `ranged` says no
// explicit list is set, so load_lo:load_hi:load_step fixes the grid;
// `lists` names the block's lists in the empty-grid hint.
template <typename Knobs>
std::string GridProblem(const std::string& where, const Knobs& knobs, bool ranged,
                        const char* lists) {
  if (ranged && knobs.load_step <= 0.0) {
    return where + ".load_step must be positive";
  }
  std::vector<double> grid = knobs.GridPoints();
  if (grid.empty()) {
    return where + " grid is empty (check " + lists + " or load_lo:load_hi:load_step)";
  }
  for (double point : grid) {
    // NaN fails both comparisons, so it is rejected here too.
    if (!(point > 0.0) || !std::isfinite(point)) {
      return where + " grid points must be positive and finite";
    }
  }
  return "";
}

}  // namespace

std::vector<double> ServeSweepKnobs::GridPoints() const {
  if (!rates.empty()) {
    return rates;
  }
  if (!loads.empty()) {
    return loads;
  }
  return ExpandGridRange(load_lo, load_hi, load_step);
}

std::vector<double> FleetKnobs::GridPoints() const {
  if (!loads.empty()) {
    return loads;
  }
  return ExpandGridRange(load_lo, load_hi, load_step);
}

std::vector<std::string> Scenario::ResolvedModels() const {
  if (!models.empty()) {
    return models;
  }
  switch (StudyOf(study).models) {
    case ListRule::kSet:
      return NamesOf(CaseStudyModels());
    case ListRule::kOne:
      return {Llama3_70B().name};
    case ListRule::kNone:
      break;
  }
  return {};
}

std::vector<std::string> Scenario::ResolvedGpus() const {
  if (!gpus.empty()) {
    return gpus;
  }
  const Study& row = StudyOf(study);
  return row.default_gpus != nullptr ? row.default_gpus(*this) : std::vector<std::string>{};
}

SearchOptions Scenario::MakeSearchOptions() const {
  SearchOptions options;
  options.workload = workload;
  options.kv_policy = kv_policy;
  options.max_batch = max_batch;
  options.exec = exec;
  return options;
}

std::string Scenario::Validate() const {
  const Study& row = StudyOf(study);
  const std::string label = "study '" + std::string(row.name) + "'";
  const std::vector<std::string> resolved_models = ResolvedModels();
  const std::vector<std::string> resolved_gpus = ResolvedGpus();
  if (row.perf_search) {
    if (std::string problem = CheckFields(kWorkloadFields, workload, "workload");
        !problem.empty()) {
      return problem;
    }
    if (std::string problem = CheckFields(kScenarioFields, *this, ""); !problem.empty()) {
      return problem;
    }
    for (const std::string& name : resolved_models) {
      if (!FindModel(name)) {
        return "unknown model '" + name + "' (try `litegpu list`)";
      }
    }
  }
  if (row.default_gpus != nullptr) {
    if (resolved_gpus.empty()) {
      // Only a study whose GPUs are its fleet candidates' parts resolves none.
      return "fleet.candidates must be non-empty";
    }
    for (const std::string& name : resolved_gpus) {
      if (!FindGpu(name)) {
        return "unknown GPU '" + name + "' (try `litegpu list`)";
      }
    }
    if ((study == StudyKind::kFig3a || study == StudyKind::kFig3b) &&
        std::find(resolved_gpus.begin(), resolved_gpus.end(), baseline_gpu) ==
            resolved_gpus.end()) {
      return "baseline_gpu '" + baseline_gpu + "' is not in the scenario's GPU list";
    }
  }
  // The list rules, models first. A study that takes neither list reads its
  // own knob block only; accepting models/gpus there would silently ignore
  // them (derive targets derive.base_gpu).
  if (row.models == ListRule::kNone && row.gpus == ListRule::kNone &&
      (!models.empty() || !gpus.empty())) {
    return label + " does not take models/gpus lists";
  }
  if (row.models == ListRule::kOne && resolved_models.size() != 1) {
    return label + " simulates exactly one model (got " +
           std::to_string(resolved_models.size()) + ")";
  }
  if (row.models == ListRule::kNone && !models.empty()) {
    return label + " does not take a models list";  // mcsim: GPUs only
  }
  if (row.gpus == ListRule::kOne && resolved_gpus.size() != 1) {
    return label + " simulates exactly one GPU type (got " +
           std::to_string(resolved_gpus.size()) + ")";
  }
  if (row.gpus == ListRule::kNone && !gpus.empty()) {
    // Past the check above, only fleet-compare takes no gpus list.
    return label + " takes its GPUs from fleet.candidates (drop the gpus list)";
  }
  switch (study) {
    case StudyKind::kMcSim:
      return CheckFields(kMcSimFields, mcsim, "mcsim");
    case StudyKind::kYield:
      return CheckFields(kYieldFields, yield, "yield");
    case StudyKind::kDerive:
      if (!FindGpu(derive.base_gpu)) {
        return "unknown derive.base_gpu '" + derive.base_gpu + "'";
      }
      return CheckFields(kDeriveFields, derive, "derive");
    case StudyKind::kDesign:
      return CheckFields(kDesignFields, design, "design");
    case StudyKind::kServe:
      if (std::string problem = CheckFields(kServeFields, serve, "serve"); !problem.empty()) {
        return problem;
      }
      if (serve.load <= 0.0 && serve.arrival_rate_per_s <= 0.0 &&
          serve.arrival.kind != ArrivalKind::kTrace) {
        // A trace needs neither: the recorded times fix the offered rate.
        return "serve needs a positive load fraction or arrival_rate_per_s";
      }
      return ValidateServeCommonKnobs(serve, "serve");
    case StudyKind::kServeSweep:
      if (std::string problem = CheckFields(kServeSweepFields, sweep, "sweep");
          !problem.empty()) {
        return problem;
      }
      if (std::string problem = GridProblem(
              "sweep", sweep, sweep.loads.empty() && sweep.rates.empty(), "loads/rates");
          !problem.empty()) {
        return problem;
      }
      if (sweep.arrival.kind == ArrivalKind::kTrace) {
        // The trace fixes the offered rate, so there is nothing to sweep.
        return "sweep.arrival.kind 'trace' is not supported (use study 'serve')";
      }
      return ValidateServeCommonKnobs(sweep, "sweep");
    case StudyKind::kFleetCompare: {
      std::vector<std::string> seen;
      for (size_t i = 0; i < fleet.candidates.size(); ++i) {
        const FleetCandidate& c = fleet.candidates[i];
        std::string where = "fleet.candidates[" + std::to_string(i) + "]";
        if (c.name.empty()) {
          return where + ".name must be non-empty";
        }
        if (std::find(seen.begin(), seen.end(), c.name) != seen.end()) {
          // Names seed the per-candidate RNG streams, so duplicates would
          // silently alias two candidates onto the same points.
          return "duplicate fleet candidate name '" + c.name + "'";
        }
        seen.push_back(c.name);
        if (std::string problem = CheckFields(kFleetCandidateFields, c, where);
            !problem.empty()) {
          return problem;
        }
      }
      if (std::string problem = CheckFields(kFleetFields, fleet, "fleet"); !problem.empty()) {
        return problem;
      }
      return GridProblem("fleet", fleet, fleet.loads.empty(), "loads");
    }
    default:
      return "";
  }
}

// --- JSON serialization -----------------------------------------------------

namespace {

// The arrival and autoscaler blocks in the scenario file's keys; scenario
// files and report config echoes share them.
Json ArrivalProcessToJson(const ArrivalProcess& process) {
  return WithArrivalFields(process.kind,
                           [&](const auto& table) { return FieldsToJson(table, process); });
}

Json AutoscalerKnobsToJson(const AutoscalerKnobs& knobs) {
  return FieldsToJson(kAutoscalerFields, knobs);
}

}  // namespace

Json McSimKnobsToJson(const McSimKnobs& knobs) { return FieldsToJson(kMcSimFields, knobs); }

Json ServeSweepGridToJson(const ServeSweepKnobs& knobs) {
  return FieldsToJson(kServeSweepFields, knobs);
}

void WriteServeOptionalBlocks(Json& block, const ServeCommonKnobs& knobs) {
  if (knobs.arrival.kind != ArrivalKind::kPoisson) {
    block.Set("arrival", ArrivalProcessToJson(knobs.arrival));
  }
  if (knobs.autoscaler.enabled()) {
    block.Set("autoscaler", AutoscalerKnobsToJson(knobs.autoscaler));
  }
  // Compared field-by-field — not merely enabled() — so an afr-0 block
  // with, say, hot spares set still round-trips instead of vanishing.
  if (!FieldsAreDefault(kFaultFields, knobs.faults)) {
    block.Set("faults", FieldsToJson(kFaultFields, knobs.faults));
  }
  if (!knobs.classes.empty()) {
    block.Set("classes", BlockListToJson(kRequestClassFields, knobs.classes));
  }
}

Json FleetKnobsToJson(const FleetKnobs& knobs) {
  Json fleet = Json::Object();
  fleet.Set("candidates", BlockListToJson(kFleetCandidateFields, knobs.candidates));
  WriteFields(fleet, kFleetFields, knobs);
  return fleet;
}

namespace {

// A serve or sweep block: the study's own rows, the shared per-point rows,
// the optional nested blocks, then `shards`.
template <typename Table>
Json ServeBlockToJson(const Table& own, const StructOf<Table>& knobs) {
  Json block = FieldsToJson(own, knobs);
  WriteFields(block, kServeCommonFields, knobs);
  WriteServeOptionalBlocks(block, knobs);
  WriteFields(block, kServeShardFields, knobs);
  return block;
}

}  // namespace

Json ScenarioToJson(const Scenario& s) {
  Json j = Json::Object();
  if (!s.name.empty()) {
    j.Set("name", s.name);
  }
  j.Set("study", ToString(s.study));
  auto names = [](const std::vector<std::string>& list) {
    Json arr = Json::Array();
    for (const std::string& name : list) {
      arr.Append(name);
    }
    return arr;
  };
  if (!s.models.empty()) {
    j.Set("models", names(s.models));
  }
  if (!s.gpus.empty()) {
    j.Set("gpus", names(s.gpus));
  }
  j.Set("baseline_gpu", s.baseline_gpu);
  j.Set("workload", FieldsToJson(kWorkloadFields, s.workload));
  j.Set("kv_policy", ToString(s.kv_policy));
  j.Set("max_batch", s.max_batch);

  switch (s.study) {
    case StudyKind::kDesign:
      j.Set("design", FieldsToJson(kDesignFields, s.design));
      break;
    case StudyKind::kMcSim:
      j.Set("mcsim", McSimKnobsToJson(s.mcsim));
      break;
    case StudyKind::kYield:
      j.Set("yield", FieldsToJson(kYieldFields, s.yield));
      break;
    case StudyKind::kDerive:
      j.Set("derive", FieldsToJson(kDeriveFields, s.derive));
      break;
    case StudyKind::kServe:
      j.Set("serve", ServeBlockToJson(kServeFields, s.serve));
      break;
    case StudyKind::kServeSweep:
      j.Set("sweep", ServeBlockToJson(kServeSweepFields, s.sweep));
      break;
    case StudyKind::kFleetCompare:
      j.Set("fleet", FleetKnobsToJson(s.fleet));
      break;
    default:
      break;
  }
  j.Set("exec", FieldsToJson(kExecFields, s.exec));
  return j;
}

namespace {

// Strict reader for an array of flat blocks (`classes`, `candidates`):
// entry i is read as block "<where>.<key>[i]".
template <typename Table>
bool ReadBlockList(const Json& arr, const std::string& where, std::string_view key,
                   const Table& table, std::vector<StructOf<Table>>& out,
                   std::string* error) {
  if (!arr.is_array()) {
    return TypeError(key, where, "an array of objects", error);
  }
  for (const Json& entry : arr.elements()) {
    StructOf<Table> item;
    if (!ReadBlock(entry, Label(where, key) + "[" + std::to_string(out.size()) + "]", table,
                   item, error)) {
      return false;
    }
    out.push_back(std::move(item));
  }
  return true;
}

// The arrival object is a tagged union: `kind` selects the key set.
bool ReadArrival(const Json& obj, const std::string& where, ArrivalProcess& out,
                 std::string* error) {
  const Json* kind = obj.Find("kind");
  if (kind != nullptr && !ReadField(*kind, kArrivalKindField, where, out, error)) {
    return false;
  }
  return WithArrivalFields(out.kind, [&](const auto& table) {
    return ReadBlock(obj, where, table, out, error);
  });
}

bool ReadAutoscaler(const Json& obj, const std::string& where, AutoscalerKnobs& out,
                    std::string* error) {
  // Writing an autoscaler block at all means you want one: the policy
  // defaults to reactive here (an explicit "none" still turns it off).
  out.policy = AutoscalerPolicy::kReactive;
  return ReadBlock(obj, where, kAutoscalerFields, out, error);
}

// The one strict reader for the serve and sweep blocks. Absent keys keep
// their defaults (stationary Poisson, no autoscaler, no faults).
template <typename Table>
bool ReadServeBlock(const Json& obj, const std::string& where, const Table& own,
                    StructOf<Table>& out, std::string* error) {
  if (!obj.is_object()) {
    return Fail(error, where + " must be an object");
  }
  if (!CheckKeys(obj, where, error, own, kServeCommonFields, kServeBlockKeys,
                 kServeShardFields) ||
      !ReadFields(obj, where, own, out, error) ||
      !ReadFields(obj, where, kServeCommonFields, out, error) ||
      !ReadFields(obj, where, kServeShardFields, out, error)) {
    return false;
  }
  const Json* arrival = obj.Find("arrival");
  const Json* autoscaler = obj.Find("autoscaler");
  const Json* faults = obj.Find("faults");
  const Json* classes = obj.Find("classes");
  return (arrival == nullptr ||
          ReadArrival(*arrival, where + ".arrival", out.arrival, error)) &&
         (autoscaler == nullptr ||
          ReadAutoscaler(*autoscaler, where + ".autoscaler", out.autoscaler, error)) &&
         (faults == nullptr ||
          ReadBlock(*faults, where + ".faults", kFaultFields, out.faults, error)) &&
         (classes == nullptr ||
          ReadBlockList(*classes, where, "classes", kRequestClassFields, out.classes, error));
}

bool ReadFleet(const Json& obj, const std::string& where, FleetKnobs& out,
               std::string* error) {
  if (!obj.is_object()) {
    return Fail(error, where + " must be an object");
  }
  if (!CheckKeys(obj, where, error, kFleetBlockKeys, kFleetFields)) {
    return false;
  }
  const Json* cands = obj.Find("candidates");
  return (cands == nullptr || ReadBlockList(*cands, where, "candidates",
                                            kFleetCandidateFields, out.candidates, error)) &&
         ReadFields(obj, where, kFleetFields, out, error);
}

bool ReadNames(const Json& obj, const std::string& key, std::vector<std::string>& out,
               std::string* error) {
  const Json* arr = obj.Find(key);
  if (arr == nullptr) {
    return true;
  }
  if (!arr->is_array()) {
    return Fail(error, "'" + key + "' must be an array of names");
  }
  for (const Json& e : arr->elements()) {
    if (e.type() != Json::Type::kString) {
      return Fail(error, "'" + key + "' entries must be strings");
    }
    out.push_back(e.AsString());
  }
  return true;
}

}  // namespace

std::optional<Scenario> ScenarioFromJson(const Json& json, std::string* error) {
  if (!json.is_object()) {
    Fail(error, "scenario must be a JSON object");
    return std::nullopt;
  }
  if (!CheckKeys(json, "scenario", error, kScenarioFields, kScenarioBlockKeys)) {
    return std::nullopt;
  }
  std::string study_name;
  if (const Json* study = json.Find("study")) {
    if (study->type() != Json::Type::kString) {
      TypeError("study", "scenario", "a string", error);
      return std::nullopt;
    }
    study_name = study->AsString();
  }
  if (study_name.empty()) {
    Fail(error, "scenario is missing required key 'study'");
    return std::nullopt;
  }
  auto study = ParseStudyKind(study_name);
  if (!study) {
    std::string expected;
    for (const Study& row : kStudies) {
      expected += (expected.empty() ? "" : "|") + std::string(row.name);
    }
    Fail(error, "unknown study '" + study_name + "' (expected " + expected + ")");
    return std::nullopt;
  }
  Scenario s;
  s.study = *study;

  auto block = [&](const char* key, const auto& table, auto& out) {
    const Json* v = json.Find(key);
    return v == nullptr || ReadBlock(*v, key, table, out, error);
  };
  const Json* serve = json.Find("serve");
  const Json* sweep = json.Find("sweep");
  const Json* fleet = json.Find("fleet");
  if (!ReadFields(json, "scenario", kScenarioFields, s, error) ||
      !ReadNames(json, "models", s.models, error) ||
      !ReadNames(json, "gpus", s.gpus, error) ||
      !block("workload", kWorkloadFields, s.workload) ||
      !block("design", kDesignFields, s.design) ||
      !block("mcsim", kMcSimFields, s.mcsim) ||
      !block("yield", kYieldFields, s.yield) ||
      !block("derive", kDeriveFields, s.derive) ||
      (serve != nullptr && !ReadServeBlock(*serve, "serve", kServeFields, s.serve, error)) ||
      (sweep != nullptr &&
       !ReadServeBlock(*sweep, "sweep", kServeSweepFields, s.sweep, error)) ||
      (fleet != nullptr && !ReadFleet(*fleet, "fleet", s.fleet, error)) ||
      !block("exec", kExecFields, s.exec)) {
    return std::nullopt;
  }
  return s;
}

bool operator==(const Scenario& a, const Scenario& b) {
  return ScenarioToJson(a) == ScenarioToJson(b);
}

std::optional<std::vector<Scenario>> ScenariosFromJson(const Json& json,
                                                       std::string* error) {
  const Json* list = nullptr;
  if (json.is_array()) {
    list = &json;
  } else if (json.is_object() && json.Find("scenarios") != nullptr) {
    const std::string_view wrapper[] = {"scenarios"};
    if (!CheckKeys(json, "scenario batch", error, wrapper)) {
      return std::nullopt;
    }
    list = json.Find("scenarios");
    if (!list->is_array()) {
      if (error != nullptr) {
        *error = "'scenarios' must be an array";
      }
      return std::nullopt;
    }
  }

  std::vector<Scenario> scenarios;
  if (list == nullptr) {
    auto one = ScenarioFromJson(json, error);
    if (!one) {
      return std::nullopt;
    }
    scenarios.push_back(std::move(*one));
  } else {
    for (const Json& entry : list->elements()) {
      auto one = ScenarioFromJson(entry, error);
      if (!one) {
        return std::nullopt;
      }
      scenarios.push_back(std::move(*one));
    }
  }
  if (scenarios.empty()) {
    if (error != nullptr) {
      *error = "no scenarios in input";
    }
    return std::nullopt;
  }
  return scenarios;
}

std::optional<std::vector<Scenario>> LoadScenarioFile(const std::string& path,
                                                      std::string* error) {
  auto json = Json::ParseFile(path, error);
  if (!json) {
    return std::nullopt;
  }
  return ScenariosFromJson(*json, error);
}

std::optional<ExecPolicy> ExecPolicyFromJson(const Json& json, std::string* error) {
  ExecPolicy exec;
  if (!ReadBlock(json, "exec", kExecFields, exec, error)) {
    return std::nullopt;
  }
  return exec;
}

}  // namespace litegpu
