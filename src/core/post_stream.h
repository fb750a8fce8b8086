// VectorPostStream: a campaign's future posts.
//
// When the engine assigns a post task to resource i (paper Algorithm 1,
// steps 5-6), the completed task materialises as "the next post resource i
// would receive" — in the paper's evaluation, the next post of i's 2007
// sequence after the January cut-off. A campaign that has applied x_i
// posts to resource i receives store()[i][x_i] next: its allocation is its
// only cursor, and the posts are read through the trajectory table
// (initial_state.h). The offline-optimal DP planner reads the same store,
// since "all the posts ... are known in advance" (Section III-D).
//
// The stream borrows its store, like a campaign's initial posts and
// references: any number of streams and campaigns read one store at once.
// The store is the dataset's flat PostStore (post_store.h): reading a post
// is two offset loads into its tag array, and no post owns an allocation.
#ifndef INCENTAG_CORE_POST_STREAM_H_
#define INCENTAG_CORE_POST_STREAM_H_

#include "src/core/post_store.h"

namespace incentag {
namespace core {

class VectorPostStream final {
 public:
  // Reads `*store` in place. It must outlive every campaign that reads it
  // and must not change while one does.
  explicit VectorPostStream(const PostStore* store) : store_(store) {}

  size_t num_resources() const { return store_->size(); }

  // The posts this stream reads.
  const PostStore& store() const { return *store_; }

 private:
  const PostStore* store_;
};

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_POST_STREAM_H_
