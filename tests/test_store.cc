/**
 * @file
 * Tests for the pluggable fragment/artifact store: name validation,
 * atomic first-wins put semantics, listing, the HTTP object-store
 * shim (auth, dedup, manifest), openStore() spec parsing, and the
 * artifact cache's corruption rejection over a remote backend.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "bench/artifact_cache.h"
#include "bench/store.h"
#include "bench/store_server.h"
#include "common/json.h"
#include "obs/http.h"
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
    LocalDirStore store(dir_);
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
    LocalDirStore store(dir_);
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
    LocalDirStore store(dir_);
    EXPECT_FALSE(store.put("../escape.json", "x"));
    EXPECT_FALSE(store.get("../escape.json").has_value());
    EXPECT_FALSE(store.exists("../escape.json"));
    EXPECT_FALSE(std::filesystem::exists(
        std::filesystem::path(dir_).parent_path() / "escape.json"));
}

TEST_F(LocalStoreTest, ListIsPrefixFilteredAndSorted)
{
    LocalDirStore store(dir_);
    ASSERT_TRUE(store.put("bb.json", "2"));
    ASSERT_TRUE(store.put("aa.json", "1"));
    ASSERT_TRUE(store.put("heartbeat-w1.json", "hb"));
    const auto all = store.list("");
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[0].name, "aa.json");
    EXPECT_EQ(all[1].name, "bb.json");
    EXPECT_EQ(all[2].name, "heartbeat-w1.json");
    EXPECT_EQ(all[0].size, 1u);
    const auto hb = store.list("heartbeat-");
    ASSERT_EQ(hb.size(), 1u);
    EXPECT_EQ(hb[0].name, "heartbeat-w1.json");
}

TEST_F(LocalStoreTest, SubdirObjectsWork)
{
    LocalDirStore store(dir_);
    ASSERT_TRUE(store.put("prog/cafe.art", "payload"));
    EXPECT_EQ(store.get("prog/cafe.art"), "payload");
    const auto listed = store.list("prog/");
    ASSERT_EQ(listed.size(), 1u);
    EXPECT_EQ(listed[0].name, "prog/cafe.art");
}

TEST(OpenStore, ParsesSpecs)
{
    const testing_util::ScratchDir scratch;
    const std::string &dir = scratch.path();
    auto local = openStore(dir);
    ASSERT_NE(local, nullptr);
    EXPECT_NE(dynamic_cast<LocalDirStore *>(local.get()), nullptr);
    EXPECT_EQ(local->describe(), dir);
    EXPECT_EQ(openStore("http://"), nullptr);
    EXPECT_EQ(openStore("http://host:notaport"), nullptr);
}

// ----------------------------------------------------------------------
// The HTTP shim, exercised over a real loopback socket.
// ----------------------------------------------------------------------

class HttpStoreTest : public testing::Test
{
  protected:
    void SetUp() override
    {
        backing_ = std::make_unique<LocalDirStore>(scratch_.path());
        server_ = std::make_unique<StoreServer>(*backing_);
        ASSERT_TRUE(server_->start("127.0.0.1", 0, "secret"));
    }
    void TearDown() override { server_->stop(); }

    HttpStore client(const std::string &token = "secret")
    {
        return HttpStore("127.0.0.1", server_->port(), token);
    }

    testing_util::ScratchDir scratch_;
    std::unique_ptr<LocalDirStore> backing_;
    std::unique_ptr<StoreServer> server_;
};

TEST_F(HttpStoreTest, RoundTripsThroughTheWire)
{
    HttpStore store = client();
    const std::string payload("binary\0payload", 14);
    EXPECT_FALSE(store.exists("frag.json"));
    ASSERT_TRUE(store.put("frag.json", payload));
    EXPECT_TRUE(store.exists("frag.json"));
    EXPECT_EQ(store.get("frag.json"), payload);
    // The backing directory holds exactly the uploaded bytes — the
    // byte-identical merge guarantee does not depend on transport.
    EXPECT_EQ(backing_->get("frag.json"), payload);
    EXPECT_TRUE(store.remove("frag.json"));
    EXPECT_FALSE(backing_->exists("frag.json"));
}

TEST_F(HttpStoreTest, FirstWinsDedupOverTheWire)
{
    HttpStore store = client();
    ASSERT_TRUE(store.put("frag.json", "first"));
    EXPECT_TRUE(store.put("frag.json", "second"));
    EXPECT_EQ(store.get("frag.json"), "first");
    EXPECT_TRUE(store.put("hb.json", "h1", /*overwrite=*/true));
    EXPECT_TRUE(store.put("hb.json", "h2", /*overwrite=*/true));
    EXPECT_EQ(store.get("hb.json"), "h2");
}

TEST_F(HttpStoreTest, RejectsMissingOrWrongToken)
{
    HttpStore wrong = client("not-the-secret");
    EXPECT_FALSE(wrong.put("frag.json", "x"));
    EXPECT_FALSE(wrong.get("frag.json").has_value());
    EXPECT_FALSE(wrong.exists("frag.json"));
    EXPECT_TRUE(wrong.list("").empty());
    // Nothing reached the backing store.
    EXPECT_TRUE(backing_->list("").empty());

    const auto result = obs::httpRequest("127.0.0.1", server_->port(),
                                         "GET", "/manifest", "");
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, 401);
}

TEST_F(HttpStoreTest, ManifestListsObjects)
{
    HttpStore store = client();
    ASSERT_TRUE(store.put("aa.json", "1"));
    ASSERT_TRUE(store.put("bb.json", "22"));
    const auto listed = store.list("");
    ASSERT_EQ(listed.size(), 2u);
    EXPECT_EQ(listed[0].name, "aa.json");
    EXPECT_EQ(listed[0].size, 1u);
    EXPECT_EQ(listed[1].name, "bb.json");
    EXPECT_EQ(listed[1].size, 2u);

    std::string error;
    const auto doc = json::parse(server_->renderManifest(""), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->getString("schema"), "tcsim-store-manifest-v1");
    const json::Value *objects = doc->find("objects");
    ASSERT_NE(objects, nullptr);
    ASSERT_EQ(objects->items().size(), 2u);
    EXPECT_EQ(objects->items()[0].getString("name"), "aa.json");
}

TEST_F(HttpStoreTest, ServerRejectsInvalidNames)
{
    for (const char *path : {"/obj/..%2Fescape", "/obj/../escape"}) {
        const auto result = obs::httpRequest(
            "127.0.0.1", server_->port(), "PUT", path, "secret", "x");
        ASSERT_TRUE(result.has_value()) << path;
        EXPECT_NE(result->status, 200) << path;
        EXPECT_NE(result->status, 201) << path;
    }
    EXPECT_TRUE(backing_->list("").empty());
}

TEST_F(HttpStoreTest, ArtifactCacheRejectsCorruptRemoteObject)
{
    // A corrupted object served by the remote backend must be treated
    // as a miss, rejected, and evicted — same contract as local files.
    {
        ArtifactCache cache(std::make_unique<HttpStore>(
            "127.0.0.1", server_->port(), "secret"));
        ASSERT_TRUE(cache.store("prog", "key-a", "payload"));
        EXPECT_EQ(cache.load("prog", "key-a"), "payload");
    }
    const std::string name = ArtifactCache::objectName("prog", "key-a");
    std::string bytes = *backing_->get(name);
    bytes[bytes.size() - 3] ^= 0x40; // flip a payload bit
    ASSERT_TRUE(backing_->put(name, bytes, /*overwrite=*/true));

    ArtifactCache cache(std::make_unique<HttpStore>(
        "127.0.0.1", server_->port(), "secret"));
    EXPECT_FALSE(cache.load("prog", "key-a").has_value());
    EXPECT_EQ(cache.stats().rejected, 1u);
    EXPECT_FALSE(backing_->exists(name)) << "corrupt object not evicted";
}

} // namespace
