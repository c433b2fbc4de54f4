// The Engine facade: batch and incremental implementations behind one
// surface, discoverable by name, agreeing view-for-view under the same edit
// stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

std::vector<u32> to_vec(std::span<const u32> s) { return {s.begin(), s.end()}; }

TEST(Engine, RegistryEnumeratesBuiltins) {
  EXPECT_EQ(engines().names(), (std::vector<std::string>{"batch", "incremental"}));
  EXPECT_NE(engines().find("batch"), nullptr);
  EXPECT_EQ(engines().find("no-such-engine"), nullptr);
  util::Rng rng(80);
  EXPECT_THROW(engines().make("no-such-engine", util::random_function(10, 2, rng)),
               std::out_of_range);
}

TEST(Engine, AllEnginesAgreeUnderTheSameEditStream) {
  util::Rng rng(81);
  const auto inst = util::random_function(1200, 4, rng);
  util::Rng stream_rng(82);
  const auto stream =
      util::random_edit_stream(inst, 90, util::EditMix::Uniform, 6, stream_rng);

  std::vector<std::unique_ptr<Engine>> all;
  for (const auto& info : engines().all()) {
    all.push_back(engines().make(info.name, inst));
    EXPECT_EQ(all.back()->kind(), info.name);
    EXPECT_EQ(all.back()->size(), inst.size());
  }
  ASSERT_GE(all.size(), 2u);

  for (std::size_t i = 0; i < stream.size(); i += 3) {
    const auto chunk = std::span<const inc::Edit>(stream).subspan(
        i, std::min<std::size_t>(3, stream.size() - i));
    for (auto& e : all) e->apply(chunk);
    const core::PartitionView expected = all[0]->view();
    for (std::size_t j = 1; j < all.size(); ++j) {
      const core::PartitionView got = all[j]->view();
      ASSERT_EQ(to_vec(got.labels()), to_vec(expected.labels()))
          << all[j]->kind() << " diverged after " << i + chunk.size() << " edits";
      ASSERT_EQ(got.num_classes(), expected.num_classes());
    }
  }
}

TEST(Engine, EpochAdvancesWithEditsAndStampsViews) {
  util::Rng rng(83);
  auto engine = engines().make("batch", util::random_function(300, 3, rng));
  EXPECT_EQ(engine->epoch(), 0u);
  EXPECT_EQ(engine->view().epoch(), 0u);
  engine->set_b(5, engine->instance().b[5] + 1);  // guaranteed state changes
  engine->set_f(6, (engine->instance().f[6] + 1) % 300);
  EXPECT_EQ(engine->epoch(), 2u);
  EXPECT_EQ(engine->view().epoch(), 2u);
}

TEST(Engine, NoOpEditsDoNotAdvanceAnyEnginesEpoch) {
  util::Rng rng(87);
  const auto inst = util::random_function(300, 3, rng);
  for (const auto& info : engines().all()) {
    auto engine = engines().make(info.name, inst);
    const core::PartitionView v0 = engine->view();
    engine->set_b(5, inst.b[5]);
    engine->set_f(6, inst.f[6]);
    const std::vector<inc::Edit> batch = {inc::Edit::set_b(7, inst.b[7]),
                                          inc::Edit::set_f(8, inst.f[8])};
    engine->apply(batch);
    EXPECT_EQ(engine->epoch(), 0u) << info.name;
    // Epoch-based pollers rely on this: unchanged partition, unchanged stamp.
    EXPECT_EQ(engine->view().epoch(), v0.epoch()) << info.name;
  }
}

TEST(Engine, BatchViewIsCachedPerEpochAndIsolated) {
  util::Rng rng(84);
  const auto inst = util::random_function(400, 4, rng);
  BatchEngine engine(inst);
  const core::PartitionView v0 = engine.view();
  const std::vector<u32> q0 = to_vec(v0.labels());
  EXPECT_EQ(engine.view().labels().data(), v0.labels().data());  // cached
  engine.set_b(3, inst.b[3] + 1);  // guaranteed state change
  const core::PartitionView v1 = engine.view();
  EXPECT_EQ(to_vec(v0.labels()), q0);  // old snapshot untouched
  EXPECT_GT(v1.epoch(), v0.epoch());
}

TEST(Engine, EditValidationThrowsBeforeAnyStateChanges) {
  util::Rng rng(85);
  auto engine = engines().make("batch", util::random_function(64, 3, rng));
  const std::vector<u32> before = to_vec(engine->view().labels());
  const std::vector<inc::Edit> bad = {inc::Edit::set_b(1, 2), inc::Edit::set_f(0, 64)};
  EXPECT_THROW(engine->apply(bad), std::invalid_argument);
  EXPECT_THROW(engine->set_f(64, 0), std::invalid_argument);
  EXPECT_EQ(engine->epoch(), 0u);
  EXPECT_EQ(to_vec(engine->view().labels()), before);
}

TEST(Engine, CheckpointSupportIsEngineSpecific) {
  util::Rng rng(86);
  const auto inst = util::random_function(500, 4, rng);
  auto batch = engines().make("batch", inst);
  auto incremental = engines().make("incremental", inst);
  incremental->set_b(7, 3);

  std::ostringstream none;
  EXPECT_FALSE(batch->save_checkpoint(none));
  EXPECT_TRUE(none.str().empty());

  std::ostringstream os;
  ASSERT_TRUE(incremental->save_checkpoint(os));
  std::istringstream is(os.str());
  auto restored = load_incremental_engine(is);
  EXPECT_EQ(restored->kind(), "incremental");
  EXPECT_EQ(restored->epoch(), incremental->epoch());
  EXPECT_EQ(to_vec(restored->view().labels()), to_vec(incremental->view().labels()));
}

}  // namespace
}  // namespace sfcp
