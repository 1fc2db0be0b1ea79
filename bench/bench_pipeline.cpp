// Experiment F2 (DESIGN.md): the Prototype-0 pipeline of Figure 2.
//
// Times every stage of the mediator pipeline — OQL parsing, view
// expansion + translation, optimization, execution through wrappers, and
// partial-answer reconstruction — for the paper's query shapes
// (google-benchmark).
//
//   build/bench/bench_pipeline
#include <benchmark/benchmark.h>

#include "algebra/to_oql.hpp"
#include "optimizer/optimizer.hpp"
#include "optimizer/translate.hpp"
#include "odl/odl.hpp"
#include "oql/parser.hpp"
#include "oql/printer.hpp"
#include "worlds.hpp"

namespace {

using namespace disco;
using namespace disco::bench;

const char* kQuery = "select x.name from x in person where x.salary > 500";

struct PipelineFixture {
  PipelineFixture() : world(8, 200) {
    world.mediator.execute_odl(
        "define rich as select x.name from x in person "
        "where x.salary > 900;");
  }
  ScaledWorld world;
};

PipelineFixture& fixture() {
  static PipelineFixture instance;
  return instance;
}

void BM_Stage1_OqlParse(benchmark::State& state) {
  for (auto _ : state) {
    oql::ExprPtr e = oql::parse(kQuery);
    benchmark::DoNotOptimize(e.get());
  }
}

void BM_Stage2_Translate(benchmark::State& state) {
  auto& world = fixture().world;
  oql::ExprPtr e = oql::parse(kQuery);
  for (auto _ : state) {
    auto unit = optimizer::translate(e, world.mediator.catalog());
    benchmark::DoNotOptimize(unit.plan.get());
  }
}

void BM_Stage3_Optimize(benchmark::State& state) {
  auto& world = fixture().world;
  optimizer::Optimizer opt(
      &world.mediator.catalog(),
      [&world](const std::string& name) {
        return world.mediator.wrapper_by_name(name);
      },
      &world.mediator.cost_history());
  oql::ExprPtr e = oql::parse(kQuery);
  for (auto _ : state) {
    auto result = opt.optimize(e);
    benchmark::DoNotOptimize(result.plan.get());
  }
}

void BM_Stage4_EndToEndQuery(benchmark::State& state) {
  auto& world = fixture().world;
  for (auto _ : state) {
    Answer a = world.mediator.query(kQuery);
    benchmark::DoNotOptimize(a.data().size());
  }
}

void BM_Stage5_AnswerReconstruction(benchmark::State& state) {
  // Residual reconstruction (§4): logical -> OQL text.
  auto residual = algebra::project(
      algebra::submit("r0",
                      algebra::filter(algebra::get("person0", "x"),
                                      oql::parse("x.salary > 500"))),
      oql::parse("x.name"), false);
  for (auto _ : state) {
    std::string text = oql::to_oql(algebra::reconstruct(residual));
    benchmark::DoNotOptimize(text.data());
  }
}

void BM_OdlParse(benchmark::State& state) {
  const std::string odl = R"(
    interface Person (extent person) {
      attribute String name;
      attribute Short salary; };
    extent person0 of Person wrapper w0 repository r0
      map ((p0=person0),(nm=name),(sal=salary));
    define rich as select x.name from x in person where x.salary > 900;
  )";
  for (auto _ : state) {
    auto statements = odl::parse_odl(odl);
    benchmark::DoNotOptimize(statements.size());
  }
}

void BM_ViewExpansion(benchmark::State& state) {
  auto& world = fixture().world;
  oql::ExprPtr e = oql::parse("select y from y in rich");
  for (auto _ : state) {
    oql::ExprPtr expanded =
        optimizer::expand_views(e, world.mediator.catalog());
    benchmark::DoNotOptimize(expanded.get());
  }
}

}  // namespace

BENCHMARK(BM_Stage1_OqlParse);
BENCHMARK(BM_OdlParse);
BENCHMARK(BM_ViewExpansion);
BENCHMARK(BM_Stage2_Translate);
BENCHMARK(BM_Stage3_Optimize);
BENCHMARK(BM_Stage4_EndToEndQuery);
BENCHMARK(BM_Stage5_AnswerReconstruction);

BENCHMARK_MAIN();
