#include "gmd/service/model_registry.hpp"

#include <memory>
#include <utility>

#include "gmd/common/error.hpp"

namespace gmd::service {

namespace {

ModelRegistry::Handle load(const std::string& path) {
  return std::make_shared<const dse::SurrogateSuite::DeployedModel>(
      dse::SurrogateSuite::DeployedModel::load_file(path));
}

}  // namespace

ModelRegistry::ModelRegistry() : Registry("model", load) {}

std::string ModelRegistry::register_model(const std::string& name,
                                          const std::string& path) {
  GMD_REQUIRE_AS(ErrorCode::kConfig, !name.empty(),
                 "model name must be non-empty");
  // Load outside the lock; a slow disk never blocks lookups.
  Handle model = load(path);
  const std::string family = model->model->name();
  put(name, path, std::move(model));
  return family;
}

void ModelRegistry::register_model(const std::string& name,
                                   dse::SurrogateSuite::DeployedModel model) {
  GMD_REQUIRE_AS(ErrorCode::kConfig, !name.empty(),
                 "model name must be non-empty");
  GMD_REQUIRE_AS(ErrorCode::kConfig,
                 model.model != nullptr && model.model->is_fitted(),
                 "cannot register an unfitted model as '" << name << "'");
  put(name, "", std::make_shared<const dse::SurrogateSuite::DeployedModel>(
                    std::move(model)));
}

}  // namespace gmd::service
