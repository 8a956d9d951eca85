#include "vehicle_data.h"

#include "db/session.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

namespace perfbench {

using uindex::ClassId;
using uindex::Oid;
using uindex::Value;

const char* const kVehicleColors[] = {"Black", "Blue",   "Brown",  "Green",
                                      "Grey",  "Orange", "Red",    "Silver",
                                      "White", "Yellow"};
const int kVehicleColorCount = 10;

namespace {

constexpr int64_t kAgeRangeWidth = 10;

/// `n` values `i % modulo`, shuffled: every value equally often, in a
/// seeded order, so each seed builds a database of the same shape.
std::vector<uint32_t> Balanced(uint32_t n, uint32_t modulo, Rng& rng) {
  std::vector<uint32_t> out(n);
  for (uint32_t i = 0; i < n; ++i) out[i] = i % modulo;
  for (uint32_t i = n; i > 1; --i) {
    std::swap(out[i - 1], out[rng.Uniform(i)]);
  }
  return out;
}

#define PB_CONCAT_INNER(a, b) a##b
#define PB_CONCAT(a, b) PB_CONCAT_INNER(a, b)
#define PB_ASSIGN_IMPL(tmp, var, expr) \
  auto tmp = (expr);                   \
  if (!tmp.ok()) return tmp.status();  \
  var = std::move(tmp).value()
#define PB_ASSIGN(var, expr) \
  PB_ASSIGN_IMPL(PB_CONCAT(pb_result_, __LINE__), var, expr)

}  // namespace

VehicleDb::~VehicleDb() {
  db_.reset();
  if (!journal_path_.empty()) std::filesystem::remove(journal_path_);
}

std::unique_ptr<VehicleDb> VehicleDb::Build(const Args& args, int attempt,
                                            std::vector<double>* per_object_us,
                                            Report* report) {
  std::unique_ptr<VehicleDb> vdb(new VehicleDb());
  uindex::DatabaseOptions options;
  options.backend = uindex::DatabaseOptions::Backend::kMemory;
  options.page_size = 1024;
  options.group_commit = true;
  vdb->db_ = std::make_unique<uindex::Database>(options);
  uindex::Database& db = *vdb->db_;
  VehicleModel& m = vdb->model_;

  uindex::Status s = [&]() -> uindex::Status {
    // Creation order gives the paper's class codes (Employee C1,
    // Company C2, Vehicle C5 with its sub-hierarchy, then the company
    // subclasses).
    PB_ASSIGN(vdb->employee_, db.CreateClass("Employee"));
    PB_ASSIGN(vdb->company_, db.CreateClass("Company"));
    ClassId city, division;
    PB_ASSIGN(city, db.CreateClass("City"));
    PB_ASSIGN(division, db.CreateClass("Division"));
    (void)city;
    (void)division;
    PB_ASSIGN(vdb->vehicle_, db.CreateClass("Vehicle"));
    const ClassId vehicle = vdb->vehicle_;
    ClassId automobile, compact, foreign, service, truck, heavy, light, bus,
        military, tourist, passenger, auto_co, jp_co, truck_co;
    PB_ASSIGN(automobile, db.CreateSubclass("Automobile", vehicle));
    PB_ASSIGN(compact, db.CreateSubclass("CompactAutomobile", automobile));
    PB_ASSIGN(foreign, db.CreateSubclass("ForeignAutomobile", automobile));
    PB_ASSIGN(service, db.CreateSubclass("ServiceAutomobile", automobile));
    PB_ASSIGN(truck, db.CreateSubclass("Truck", vehicle));
    PB_ASSIGN(heavy, db.CreateSubclass("HeavyTruck", truck));
    PB_ASSIGN(light, db.CreateSubclass("LightTruck", truck));
    PB_ASSIGN(bus, db.CreateSubclass("Bus", vehicle));
    PB_ASSIGN(military, db.CreateSubclass("MilitaryBus", bus));
    PB_ASSIGN(tourist, db.CreateSubclass("TouristBus", bus));
    PB_ASSIGN(passenger, db.CreateSubclass("PassengerBus", bus));
    PB_ASSIGN(auto_co, db.CreateSubclass("AutoCompany", vdb->company_));
    PB_ASSIGN(jp_co, db.CreateSubclass("JapaneseAutoCompany", auto_co));
    PB_ASSIGN(truck_co, db.CreateSubclass("TruckCompany", vdb->company_));
    UINDEX_RETURN_IF_ERROR(
        db.CreateReference(vehicle, vdb->company_, "manufactured-by"));
    UINDEX_RETURN_IF_ERROR(
        db.CreateReference(vdb->company_, vdb->employee_, "president"));
    vdb->subtrees_ = {vehicle, automobile, truck, bus, compact};
    vdb->subtree_names_ = {"Vehicle", "Automobile", "Truck", "Bus",
                           "CompactAutomobile"};

    const std::vector<ClassId> vehicle_classes = {
        vehicle, automobile, compact, foreign, service, truck,
        heavy,   light,      bus,     military, tourist, passenger};
    const std::vector<ClassId> company_classes = {vdb->company_, auto_co,
                                                  jp_co, truck_co};
    // Balanced shape: ages spread evenly over [kMinAge, kMaxAge], every
    // company presided by a different employee of the same client slice
    // (see PresidentSlice), and equal counts of each vehicle class, color
    // and maker. Only the arrangement depends on the seed.
    Rng rng(args.seed * 0xD1B54A32D192ED03ull + 7);
    const std::vector<uint32_t> age_order = Balanced(kEmployees, kEmployees, rng);
    const std::vector<uint32_t> company_class =
        Balanced(kCompanies, static_cast<uint32_t>(company_classes.size()), rng);
    const std::vector<uint32_t> vehicle_class =
        Balanced(kVehicles, static_cast<uint32_t>(vehicle_classes.size()), rng);
    const std::vector<uint32_t> vehicle_color =
        Balanced(kVehicles, kVehicleColorCount, rng);
    const std::vector<uint32_t> vehicle_maker =
        Balanced(kVehicles, kCompanies, rng);
    std::vector<std::vector<uint32_t>> slice_presidents(kSlices);
    for (uint32_t k = 0; k < kSlices; ++k) {
      slice_presidents[k] = Balanced(kEmployees / kSlices,
                                     kEmployees / kSlices, rng);
    }
    auto timed = [per_object_us](auto&& body) -> uindex::Status {
      const Clock::time_point t0 = Clock::now();
      uindex::Status st = body();
      if (per_object_us != nullptr) per_object_us->push_back(UsSince(t0));
      return st;
    };
    for (uint32_t i = 0; i < kEmployees; ++i) {
      const int64_t age = kMinAge + static_cast<int64_t>(age_order[i]) *
                                        (kMaxAge - kMinAge + 1) / kEmployees;
      UINDEX_RETURN_IF_ERROR(timed([&]() -> uindex::Status {
        Oid oid;
        PB_ASSIGN(oid, db.CreateObject(vdb->employee_));
        m.emp_oid.push_back(oid);
        m.emp_age.push_back(age);
        return db.SetAttr(oid, "Age", Value::Int(age));
      }));
    }
    for (uint32_t i = 0; i < kCompanies; ++i) {
      const ClassId cls = company_classes[company_class[i]];
      const uint32_t slice = i % kSlices;
      const uint32_t president =
          slice + kSlices * slice_presidents[slice][i / kSlices];
      UINDEX_RETURN_IF_ERROR(timed([&]() -> uindex::Status {
        Oid oid;
        PB_ASSIGN(oid, db.CreateObject(cls));
        m.co_oid.push_back(oid);
        m.co_president.push_back(president);
        return db.SetAttr(oid, "president",
                          Value::Ref(m.emp_oid[president]));
      }));
    }
    for (uint32_t i = 0; i < kVehicles; ++i) {
      const ClassId cls = vehicle_classes[vehicle_class[i]];
      const int color = static_cast<int>(vehicle_color[i]);
      const uint32_t maker = vehicle_maker[i];
      UINDEX_RETURN_IF_ERROR(timed([&]() -> uindex::Status {
        Oid oid;
        PB_ASSIGN(oid, db.CreateObject(cls));
        m.veh_oid.push_back(oid);
        m.veh_class.push_back(cls);
        m.veh_color.push_back(color);
        m.veh_maker.push_back(maker);
        UINDEX_RETURN_IF_ERROR(
            db.SetAttr(oid, "Color", Value::Str(kVehicleColors[color])));
        return db.SetAttr(oid, "manufactured-by",
                          Value::Ref(m.co_oid[maker]));
      }));
    }
    // Indexes are built from the loaded data (a sorted bulk insert), so
    // their size depends on the keys, not on the load order.
    PB_ASSIGN(vdb->color_index_,
              db.CreateIndex(uindex::PathSpec::ClassHierarchy(
                  vehicle, "Color", Value::Kind::kString)));
    uindex::PathSpec age_path;
    age_path.indexed_attr = "Age";
    age_path.value_kind = Value::Kind::kInt;
    age_path.classes = {vehicle, vdb->company_, vdb->employee_};
    age_path.ref_attrs = {"manufactured-by", "president"};
    PB_ASSIGN(vdb->age_index_, db.CreateIndex(age_path));

    vdb->journal_path_ = args.work_dir + "/vehicle-" +
                         std::to_string(::getpid()) + "-" +
                         std::to_string(attempt) + ".journal";
    return db.EnableJournal(vdb->journal_path_);
  }();
  if (!s.ok()) {
    report->Fail("vehicle load: " + s.ToString());
    return nullptr;
  }
  return vdb;
}

std::string VehicleDb::Oql(const VehicleRead& r) const {
  switch (r.kind) {
    case 0:
      return "SELECT v FROM " + subtree_names_[r.subtree] +
             "* v WHERE v.Color = '" + kVehicleColors[r.color] + "'";
    case 1:
      return "SELECT v FROM Vehicle* v WHERE v.manufactured-by.president.Age"
             " = " +
             std::to_string(r.lo);
    default:
      return "SELECT c FROM Company* c WHERE c.president.Age BETWEEN " +
             std::to_string(r.lo) + " AND " + std::to_string(r.hi);
  }
}

bool VehicleDb::IndexQuery(const VehicleRead& r, size_t* index_pos,
                           uindex::Query* q, size_t* key_pos) const {
  if (r.kind == 0) {
    *index_pos = color_index_;
    *q = uindex::Query::ExactValue(Value::Str(kVehicleColors[r.color]));
    q->With(uindex::ClassSelector::Subtree(subtrees_[r.subtree]),
            uindex::ValueSlot::Wanted());
    *key_pos = 0;
    return true;
  }
  if (r.kind == 1) {
    // Components run tail to head: Employee, Company, Vehicle.
    *index_pos = age_index_;
    *q = uindex::Query::ExactValue(Value::Int(r.lo));
    q->With(uindex::ClassSelector::Any());
    q->With(uindex::ClassSelector::Any());
    q->With(uindex::ClassSelector::Subtree(vehicle_),
            uindex::ValueSlot::Wanted());
    *key_pos = 2;
    return true;
  }
  return false;
}

std::vector<Oid> VehicleDb::Answer(const VehicleRead& r) const {
  const VehicleModel& m = model_;
  std::vector<Oid> out;
  switch (r.kind) {
    case 0:
      for (size_t v = 0; v < m.veh_oid.size(); ++v) {
        if (m.veh_color[v] == r.color &&
            db_->schema().IsSubclassOf(m.veh_class[v], subtrees_[r.subtree])) {
          out.push_back(m.veh_oid[v]);
        }
      }
      break;
    case 1:
      for (size_t v = 0; v < m.veh_oid.size(); ++v) {
        if (m.emp_age[m.co_president[m.veh_maker[v]]] == r.lo) {
          out.push_back(m.veh_oid[v]);
        }
      }
      break;
    default:
      for (size_t c = 0; c < m.co_oid.size(); ++c) {
        const int64_t age = m.emp_age[m.co_president[c]];
        if (age >= r.lo && age <= r.hi) out.push_back(m.co_oid[c]);
      }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<VehicleRead> VehicleDb::DistinctReads() const {
  std::vector<VehicleRead> out;
  for (int t = 0; t < static_cast<int>(subtrees_.size()); ++t) {
    for (int c = 0; c < kVehicleColorCount; ++c) {
      out.push_back(VehicleRead{0, t, c, 0, 0});
    }
  }
  for (int64_t a = kMinAge; a <= kMaxAge; ++a) {
    out.push_back(VehicleRead{1, 0, 0, a, a});
  }
  for (int64_t lo = kMinAge; lo + kAgeRangeWidth - 1 <= kMaxAge; ++lo) {
    out.push_back(VehicleRead{2, 0, 0, lo, lo + kAgeRangeWidth - 1});
  }
  return out;
}

VehicleRead VehicleDb::MakeRead(int kind, Rng& rng) const {
  VehicleRead r;
  r.kind = kind;
  if (kind == 0) {
    // Vehicle* (the largest answer, 1,200 rows) three times in five, then
    // Automobile* and Bus* (400 rows each): a fifth of all reads return
    // 1,200 rows, so the mix's p90 lies inside that one read's latency
    // rather than in the gap below it, where the smallest shift in speed
    // moved it between two answer sizes. Truck* and CompactAutomobile*
    // are read in the serial pass and the checks.
    static constexpr int kLoopSubtrees[] = {0, 0, 0, 1, 3};
    r.subtree = kLoopSubtrees[rng.Uniform(5)];
    r.color = static_cast<int>(rng.Uniform(kVehicleColorCount));
  } else if (kind == 1) {
    r.lo = r.hi =
        kMinAge + static_cast<int64_t>(rng.Uniform(kMaxAge - kMinAge + 1));
  } else {
    r.lo = kMinAge + static_cast<int64_t>(
                         rng.Uniform(kMaxAge - kMinAge - kAgeRangeWidth + 2));
    r.hi = r.lo + kAgeRangeWidth - 1;
  }
  return r;
}

uindex::Status VehicleDb::ApplyWrite(const VehicleWrite& w,
                                     bool rekey_as_age) {
  const VehicleModel& m = model_;
  uindex::Status s;
  switch (w.kind) {
    case 0:
      s = db_->SetAttr(m.veh_oid[w.target], "Color",
                       Value::Str(kVehicleColors[w.value]));
      break;
    case 1:
      s = db_->SetAttr(m.veh_oid[w.target], "Mileage", Value::Int(w.value));
      break;
    default:
      s = rekey_as_age
              ? db_->SetAttr(m.emp_oid[w.target], "Age", Value::Int(w.value))
              : db_->SetAttr(m.co_oid[w.target], "president",
                             Value::Ref(m.emp_oid[w.value]));
  }
  if (s.ok()) ApplyToModel(w, rekey_as_age);
  return s;
}

void VehicleDb::ApplyToModel(const VehicleWrite& w, bool rekey_as_age) {
  VehicleModel& m = model_;
  if (w.kind == 0) {
    m.veh_color[w.target] = static_cast<int>(w.value);
  } else if (w.kind == 2) {
    if (rekey_as_age) {
      m.emp_age[w.target] = w.value;
    } else {
      m.co_president[w.target] = static_cast<uint32_t>(w.value);
    }
  }
}

std::vector<uint32_t> VehicleDb::Presidents() const {
  std::vector<uint32_t> out(model_.co_president);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

uint32_t VehicleDb::FreeEmployee(uint32_t slice, Rng& rng) const {
  // A slice's employees preside only over the slice's companies, so this
  // reads no company another client may be writing.
  std::vector<bool> busy(kEmployees, false);
  for (uint32_t c = slice; c < kCompanies; c += kSlices) {
    busy[model_.co_president[c]] = true;
  }
  std::vector<uint32_t> free;
  for (uint32_t e = slice; e < kEmployees; e += kSlices) {
    if (!busy[e]) free.push_back(e);
  }
  return free[rng.Uniform(free.size())];
}

size_t VehicleDb::Verify(Report* report) {
  uindex::Session session(db_.get());
  size_t checked = 0;
  for (const VehicleRead& r : DistinctReads()) {
    const std::vector<Oid> want = Answer(r);
    uindex::Result<uindex::Database::OqlResult> got =
        session.ExecuteOql(Oql(r));
    if (!got.ok()) {
      report->Fail("verify " + Oql(r) + ": " + got.status().ToString());
      return checked;
    }
    if (got.value().oids != want) {
      report->Fail("rows differ from the model for " + Oql(r));
      return checked;
    }
    size_t pos = 0, key_pos = 0;
    uindex::Query q;
    if (IndexQuery(r, &pos, &q, &key_pos)) {
      uindex::Result<uindex::QueryResult> raw = db_->Execute(pos, q);
      if (!raw.ok() || raw.value().Distinct(key_pos) != want) {
        report->Fail("precompiled index query differs from the model for " +
                     Oql(r));
        return checked;
      }
    }
    ++checked;
  }
  return checked;
}

std::unique_ptr<VehicleDb> BuildVehicleDbRepeated(
    const Args& args, std::vector<double>* setup_s,
    std::vector<double>* per_object_us, Report* report) {
  std::unique_ptr<VehicleDb> vdb;
  for (int attempt = 0; attempt < kVehicleSetups; ++attempt) {
    vdb.reset();
    const bool last = attempt == kVehicleSetups - 1;
    const Clock::time_point t0 = Clock::now();
    vdb = VehicleDb::Build(args, attempt, last ? per_object_us : nullptr,
                           report);
    if (vdb == nullptr) return nullptr;
    setup_s->push_back(UsSince(t0) / 1e6);
  }
  return vdb;
}

double SerialPagesPerRead(VehicleDb* vdb, int64_t* reads, Report* report) {
  uindex::Database& db = vdb->db();
  uindex::Session session(&db);
  double pages = 0;
  *reads = 0;
  for (const VehicleRead& r : vdb->DistinctReads()) {
    db.buffers().BeginQuery();
    const uint64_t before = db.buffers().stats().pages_read.load();
    uindex::Result<uindex::Database::OqlResult> got =
        session.ExecuteOql(vdb->Oql(r));
    pages += db.buffers().stats().pages_read.load() - before;
    ++*reads;
    report->Attempt();
    if (!got.ok() || got.value().oids != vdb->Answer(r)) {
      report->Failed();
      report->Fail("serial pass rows differ for " + vdb->Oql(r));
      return 0;
    }
  }
  return pages / *reads;
}

void ReportLoadQuarters(const std::vector<double>& per_object_us,
                        Report* report) {
  const size_t n = per_object_us.size();
  for (int q = 0; q < 4; ++q) {
    const size_t lo = n * q / 4, hi = n * (q + 1) / 4;
    double sum = 0;
    for (size_t i = lo; i < hi; ++i) sum += per_object_us[i];
    report->Metric("db.load_us_per_object.q" + std::to_string(q + 1),
                   Ratio(sum, static_cast<double>(hi - lo)), "us",
                   static_cast<int64_t>(hi - lo));
  }
}

}  // namespace perfbench
