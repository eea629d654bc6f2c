#include "storage/catalog.h"

namespace relserve {

Result<TableInfo*> Catalog::CreateTable(const std::string& name,
                                        Schema schema) {
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "'");
  }
  auto info = std::make_unique<TableInfo>();
  info->name = name;
  info->schema = std::move(schema);
  info->columnar = std::make_unique<ColumnarTable>(pool_, info->schema);
  info->visibility = std::make_unique<VisibilityMap>();
  TableInfo* raw = info.get();
  tables_[name] = std::move(info);
  return raw;
}

Result<TableInfo*> Catalog::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "'");
  }
  return it->second.get();
}

Result<BlockStore*> Catalog::CreateTensorRelation(
    const std::string& name, BlockedShape geometry) {
  if (tensor_relations_.count(name) > 0) {
    return Status::AlreadyExists("tensor relation '" + name + "'");
  }
  auto store = std::make_unique<BlockStore>(pool_, geometry);
  BlockStore* raw = store.get();
  tensor_relations_[name] = std::move(store);
  return raw;
}

Result<BlockStore*> Catalog::GetTensorRelation(const std::string& name) {
  auto it = tensor_relations_.find(name);
  if (it == tensor_relations_.end()) {
    return Status::NotFound("tensor relation '" + name + "'");
  }
  return it->second.get();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, info] : tables_) names.push_back(name);
  return names;
}

std::vector<std::string> Catalog::TensorRelationNames() const {
  std::vector<std::string> names;
  names.reserve(tensor_relations_.size());
  for (const auto& [name, store] : tensor_relations_) {
    names.push_back(name);
  }
  return names;
}

}  // namespace relserve
