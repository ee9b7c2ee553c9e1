/// \file surrogate_store.cpp
/// "Train once, query forever": runs the sweep, trains one surrogate
/// per metric, saves them (plus the dataset) to a directory, reloads
/// them, and answers configuration queries without any simulation —
/// the deployment workflow the serialization layer exists for.
///
/// Usage: surrogate_store [--dir gmd-models] [--vertices 512]

#include <filesystem>
#include <fstream>
#include <iostream>

#include "gmd/common/cli.hpp"
#include "gmd/common/error.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/dataset_builder.hpp"
#include "gmd/dse/workload.hpp"
#include "gmd/ml/serialize.hpp"

int main(int argc, char** argv) {
  using namespace gmd;

  CliParser cli("surrogate_store", "persist and reload trained surrogates");
  cli.add_option("dir", "gmd-models", "model store directory")
      .add_option("vertices", "512", "graph size");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const std::filesystem::path dir(cli.get_string("dir"));
    std::filesystem::create_directories(dir);

    // Phase 1: simulate and train (the expensive part).
    const auto trace = dse::generate_workload_trace(
        {.graph_vertices = cli.get_count<std::uint32_t>("vertices")});
    const auto rows = dse::run_sweep(dse::reduced_design_space(), trace);
    dse::sweep_to_table(rows).save((dir / "dataset.csv").string());

    for (const std::string& metric : dse::target_metric_names()) {
      const dse::MetricDataset md = dse::build_metric_dataset(rows, metric);
      const auto model = ml::make_regressor("svr");
      model->fit(md.data.X, md.data.y);
      ml::save_model_file((dir / (metric + ".svr.txt")).string(), *model);
    }
    std::cout << "stored dataset + " << dse::target_metric_names().size()
              << " SVR models in " << dir << "\n\n";

    // Phase 2: a "later session" — reload and query, no simulator.
    const auto stored_rows =
        dse::table_to_sweep(CsvTable::load((dir / "dataset.csv").string()));
    dse::DesignPoint query;
    query.kind = dse::MemoryKind::kHybrid;
    query.cpu_freq_mhz = 5000;
    query.ctrl_freq_mhz = 1250;
    query.channels = 4;
    query.trcd = 125;

    std::cout << "reloaded " << stored_rows.size()
              << " dataset rows; predictions for " << query.id() << ":\n";
    for (const std::string& metric : dse::target_metric_names()) {
      const dse::MetricDataset md =
          dse::build_metric_dataset(stored_rows, metric);
      const auto model =
          ml::load_model_file((dir / (metric + ".svr.txt")).string());
      // Scale the query with the dataset's scalers, predict, unscale.
      const auto raw = query.features();
      ml::Matrix x(1, raw.size());
      std::copy(raw.begin(), raw.end(), x.row(0).begin());
      const double scaled = model->predict_one(md.x_scaler.transform(x).row(0));
      const double value =
          md.y_scaler.inverse_transform(std::vector<double>{scaled})[0];
      std::cout << "  " << metric << ": " << value << "\n";
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "error [" << to_string(e.code()) << "]: " << e.what()
              << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
