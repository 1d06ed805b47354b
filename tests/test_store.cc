/**
 * @file
 * Tests for the fragment store: name validation, atomic first-wins
 * put semantics, listing, and "kind/" subdirectory objects.
 */

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/store.h"
#include "scratch_dir.h"

namespace
{

using namespace tcsim;
using namespace tcsim::bench;

TEST(StoreName, ValidatesCharsetAndShape)
{
    EXPECT_TRUE(isValidStoreName("0123abcd00ff1122.json"));
    EXPECT_TRUE(isValidStoreName("prog/deadbeef.art"));
    EXPECT_TRUE(isValidStoreName("heartbeat-w1.json"));
    EXPECT_FALSE(isValidStoreName(""));
    EXPECT_FALSE(isValidStoreName("../escape.json"));
    EXPECT_FALSE(isValidStoreName("a/../b"));
    EXPECT_FALSE(isValidStoreName("a/b/c"));   // at most one separator
    EXPECT_FALSE(isValidStoreName("/rooted")); // empty first segment
    EXPECT_FALSE(isValidStoreName("trailing/"));
    EXPECT_FALSE(isValidStoreName("."));
    EXPECT_FALSE(isValidStoreName("sp ace"));
    EXPECT_FALSE(isValidStoreName("quo\"te"));
}

class LocalStoreTest : public testing::Test
{
  protected:
    testing_util::ScratchDir scratch_;
    const std::string dir_ = scratch_.path();
};

TEST_F(LocalStoreTest, PutGetExistsRemoveRoundTrip)
{
    FragmentStore store(dir_);
    const std::string payload("bytes\0with nul", 14);
    EXPECT_FALSE(store.exists("a.json"));
    EXPECT_FALSE(store.get("a.json").has_value());
    ASSERT_TRUE(store.put("a.json", payload));
    EXPECT_TRUE(store.exists("a.json"));
    EXPECT_EQ(store.get("a.json"), payload);
    EXPECT_TRUE(store.remove("a.json"));
    EXPECT_FALSE(store.exists("a.json"));
    EXPECT_TRUE(store.remove("a.json")); // already gone is success
}

TEST_F(LocalStoreTest, PutIsFirstWinsUnlessOverwrite)
{
    FragmentStore store(dir_);
    ASSERT_TRUE(store.put("a.json", "first"));
    // The straggler-duplicate dedup point: a second put succeeds
    // without touching the object.
    EXPECT_TRUE(store.put("a.json", "second"));
    EXPECT_EQ(store.get("a.json"), "first");
    EXPECT_TRUE(store.put("a.json", "third", /*overwrite=*/true));
    EXPECT_EQ(store.get("a.json"), "third");
}

TEST_F(LocalStoreTest, RejectsTraversalNames)
{
    FragmentStore store(dir_);
    EXPECT_FALSE(store.put("../escape.json", "x"));
    EXPECT_FALSE(store.get("../escape.json").has_value());
    EXPECT_FALSE(store.exists("../escape.json"));
    EXPECT_FALSE(std::filesystem::exists(
        std::filesystem::path(dir_).parent_path() / "escape.json"));
}

TEST_F(LocalStoreTest, ListIsPrefixFilteredAndSorted)
{
    // list() names the top-level objects only: "kind/" artifacts and
    // in-flight temp files are filtered out.
    FragmentStore store(dir_);
    ASSERT_TRUE(store.put("bb.json", "2"));
    ASSERT_TRUE(store.put("aa.json", "1"));
    ASSERT_TRUE(store.put("prog/cafe.art", "payload"));
    std::ofstream(dir_ + "/cc.json.tmp~1.0") << "torn";
    EXPECT_EQ(store.list(), (std::vector<std::string>{"aa.json", "bb.json"}));
}

TEST_F(LocalStoreTest, SubdirObjectsWork)
{
    FragmentStore store(dir_);
    ASSERT_TRUE(store.put("prog/cafe.art", "payload"));
    EXPECT_TRUE(store.exists("prog/cafe.art"));
    EXPECT_EQ(store.get("prog/cafe.art"), "payload");
    EXPECT_TRUE(std::filesystem::is_regular_file(dir_ + "/prog/cafe.art"));
}

} // namespace
