#pragma once

/// \file model_registry.hpp
/// Deployed-surrogate registry for the query service: loads each .gmdm
/// artifact (model + scalers) once and serves it to every concurrent
/// predict request, under the quarantine protocol of Registry (a probe
/// reloads the artifact).  Batch inference through a registered model is
/// lock-free: Regressor::predict(const Matrix&) builds its inference
/// plans as stack locals, so concurrent const predicts share the model
/// without synchronization — the registry locks only the name lookup.

#include <string>

#include "gmd/dse/surrogate.hpp"
#include "gmd/service/registry.hpp"

namespace gmd::service {

class ModelRegistry : public Registry<dse::SurrogateSuite::DeployedModel> {
 public:
  ModelRegistry();

  /// Loads a .gmdm artifact and registers it under `name`.  Replaces an
  /// existing registration of the same name (in-flight requests keep
  /// their shared handle).  Returns the model family name.
  std::string register_model(const std::string& name, const std::string& path);

  /// Registers an already-deployed model (e.g. trained in-process).
  /// Having no artifact to reload, it recovers from quarantine only by
  /// re-registration.
  void register_model(const std::string& name,
                      dse::SurrogateSuite::DeployedModel model);
};

}  // namespace gmd::service
