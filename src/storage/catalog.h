// Catalog: name -> table / tensor-relation metadata.
//
// The paper (Sec. 4) notes that managing models inside the RDBMS lets
// the catalog bind models, weights-as-relations, and the tables they
// serve. Here the catalog owns tables (ColumnarTable + Schema) and
// tensor relations (BlockStore + geometry).

#ifndef RELSERVE_STORAGE_CATALOG_H_
#define RELSERVE_STORAGE_CATALOG_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "relational/schema.h"
#include "storage/block_store.h"
#include "storage/column_store.h"
#include "storage/mvcc.h"

namespace relserve {

// Physical layout of a table. The fragment-partitioned column store is
// the only one; the enum survives as ServingSession::CreateTable's
// third parameter.
enum class TableLayout { kColumnar };

struct TableInfo {
  std::string name;
  Schema schema;
  std::unique_ptr<ColumnarTable> columnar;
  // Per-row begin/end version intervals; rows appended outside the
  // MVCC write path are untracked and visible at every snapshot.
  std::unique_ptr<VisibilityMap> visibility;
};

class Catalog {
 public:
  explicit Catalog(BufferPool* pool) : pool_(pool) {}

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // Creates an empty table; AlreadyExists if the name is taken.
  Result<TableInfo*> CreateTable(const std::string& name, Schema schema);

  Result<TableInfo*> GetTable(const std::string& name);

  // Creates an empty tensor relation with the given block geometry.
  Result<BlockStore*> CreateTensorRelation(const std::string& name,
                                           BlockedShape geometry);

  Result<BlockStore*> GetTensorRelation(const std::string& name);

  std::vector<std::string> TableNames() const;
  std::vector<std::string> TensorRelationNames() const;

  BufferPool* pool() { return pool_; }

 private:
  BufferPool* const pool_;
  std::unordered_map<std::string, std::unique_ptr<TableInfo>> tables_;
  std::unordered_map<std::string, std::unique_ptr<BlockStore>>
      tensor_relations_;
};

}  // namespace relserve

#endif  // RELSERVE_STORAGE_CATALOG_H_
