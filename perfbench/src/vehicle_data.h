// The paper's Fig. 1 schema at Table-1 scale, loaded through the Database
// facade; shared by vehicle_mixed and served_ladder. The benchmark keeps
// its own model of the data and answers every read from it, so the
// database's rows are checked against an independent reference.
#ifndef PERFBENCH_VEHICLE_DATA_H_
#define PERFBENCH_VEHICLE_DATA_H_

#include <memory>
#include <string>
#include <vector>

#include "core/query.h"
#include "db/database.h"
#include "harness.h"

namespace perfbench {

constexpr uint32_t kEmployees = 80;
constexpr uint32_t kCompanies = 60;
constexpr uint32_t kVehicles = 12000;
constexpr int64_t kMinAge = 20;
constexpr int64_t kMaxAge = 70;
constexpr int kVehicleSetups = 3;
// Companies and employees are split into kSlices slices by index modulo
// kSlices; a company's president always comes from the company's slice,
// and no employee presides over two companies. A client that writes only
// its own slice can then switch presidents without touching another
// client's data.
constexpr uint32_t kSlices = 4;

extern const char* const kVehicleColors[];
extern const int kVehicleColorCount;

/// The benchmark's own copy of every indexed or read attribute.
struct VehicleModel {
  std::vector<uindex::Oid> emp_oid;
  std::vector<int64_t> emp_age;
  std::vector<uindex::Oid> co_oid;
  std::vector<uint32_t> co_president;  // Employee index.
  std::vector<uindex::Oid> veh_oid;
  std::vector<uindex::ClassId> veh_class;
  std::vector<int> veh_color;
  std::vector<uint32_t> veh_maker;  // Company index.
};

/// One read of the mix. Kinds: 0 = exact Color over a vehicle
/// sub-hierarchy, 1 = exact full-path Age over Vehicle*, 2 = partial-path
/// Age range over Company*.
struct VehicleRead {
  int kind = 0;
  int subtree = 0;  // Kind 0: index into the sub-hierarchy list.
  int color = 0;    // Kind 0.
  int64_t lo = 0, hi = 0;  // Kinds 1 (lo == hi) and 2.
};

/// One DML of the mix. Kinds: 0 = indexed Color, 1 = non-indexed Mileage,
/// 2 = re-key (president switch, or a president's Age over HTTP).
struct VehicleWrite {
  int kind = 0;
  uint32_t target = 0;  // Vehicle, company or employee index.
  int64_t value = 0;    // Color index, mileage, employee index or age.
};

constexpr int kReadKinds = 3;
constexpr int kWriteKinds = 3;

class VehicleDb {
 public:
  /// Builds schema and indexes, loads every object one DML at a time,
  /// then enables the group-commit journal under `args.work_dir`.
  /// `per_object_us` (optional) receives each object's load time, in
  /// load order.
  static std::unique_ptr<VehicleDb> Build(const Args& args, int attempt,
                                          std::vector<double>* per_object_us,
                                          Report* report);
  ~VehicleDb();

  uindex::Database& db() { return *db_; }
  const VehicleModel& model() const { return model_; }

  std::string Oql(const VehicleRead& r) const;
  /// The same read as a precompiled index query, with the index position
  /// and the key position of the wanted oid; false for kind 2, which no
  /// index serves.
  bool IndexQuery(const VehicleRead& r, size_t* index_pos, uindex::Query* q,
                  size_t* key_pos) const;
  std::vector<uindex::Oid> Answer(const VehicleRead& r) const;

  /// Every distinct read of the mix.
  std::vector<VehicleRead> DistinctReads() const;
  /// A read of `kind` with seeded parameters.
  VehicleRead MakeRead(int kind, Rng& rng) const;

  /// Applies `w` to the database (re-key as a president switch when
  /// `rekey_as_age` is false) and, on success, to the model.
  uindex::Status ApplyWrite(const VehicleWrite& w, bool rekey_as_age);
  void ApplyToModel(const VehicleWrite& w, bool rekey_as_age);

  /// Presidents at load time, for the age re-key DML.
  std::vector<uint32_t> Presidents() const;
  /// An employee of `slice` who presides over no company.
  uint32_t FreeEmployee(uint32_t slice, Rng& rng) const;

  /// Checks every distinct read, through a Session and as a precompiled
  /// index query, against the model. Returns reads checked.
  size_t Verify(Report* report);

 private:
  VehicleDb() = default;

  std::unique_ptr<uindex::Database> db_;
  std::string journal_path_;
  VehicleModel model_;
  uindex::ClassId employee_ = 0, company_ = 0, vehicle_ = 0;
  std::vector<uindex::ClassId> subtrees_;  // Roots readable by Color.
  std::vector<std::string> subtree_names_;
  size_t color_index_ = 0, age_index_ = 0;
};

/// Builds the dataset kVehicleSetups times and keeps the last; returns
/// null after reporting a failure. `setup_s` receives every build time.
std::unique_ptr<VehicleDb> BuildVehicleDbRepeated(
    const Args& args, std::vector<double>* setup_s,
    std::vector<double>* per_object_us, Report* report);

/// Mean `pages_read` per read over every distinct read, each run alone
/// after BufferManager::BeginQuery; rows are checked too. Covering every
/// age and color once makes the mean depend little on the seed: each
/// vehicle is found by exactly one path-age read and one color read per
/// sub-hierarchy holding it.
double SerialPagesPerRead(VehicleDb* vdb, int64_t* reads, Report* report);

/// Mean load time per object in each quarter of the load, as per-layer
/// metrics: q4 over q1 shows how a commit's cost grows with the database.
void ReportLoadQuarters(const std::vector<double>& per_object_us,
                        Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_VEHICLE_DATA_H_
