#include "session/experiment.hpp"

#include "session/scenario.hpp"

namespace lon::session {

const char* to_string(Case c) {
  switch (c) {
    case Case::kLanData:
      return "case1-data-in-lan";
    case Case::kWanStreaming:
      return "case2-data-in-wan";
    case Case::kWanWithLanDepot:
      return "case3-with-lan-depot";
  }
  return "?";
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  Scenario scenario;
  scenario.name = to_string(config.which);
  scenario.base = config;
  ScenarioClient client;
  client.script = config.script.has_value()
                      ? *config.script
                      : CursorScript::standard(lightfield::SphericalLattice(config.lattice),
                                               config.dwell, config.accesses, config.seed);
  scenario.clients.push_back(std::move(client));
  ScenarioResult run = run_scenario(scenario);

  ScenarioResult::PerClient& only = run.clients.front();
  ExperimentResult result;
  result.accesses = std::move(only.accesses);
  result.summary = only.summary;
  result.failed_accesses = only.failed_accesses;
  result.staging_complete = run.staging_complete;
  result.script_duration = run.duration;
  result.db_compressed_bytes = run.db_compressed_bytes;
  result.db_uncompressed_bytes = run.db_uncompressed_bytes;
  result.obs = std::move(run.obs);
  return result;
}

}  // namespace lon::session
