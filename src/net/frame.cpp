#include "net/frame.hpp"

#include <new>

namespace meshmp::net {

namespace {

// Blocks are never returned to the OS — the high-water population is a few
// hundred (frames in flight plus retransmit queues).
struct MetaBlock {
  MetaBlock* next;
};

MetaBlock* g_meta_free = nullptr;

}  // namespace

void* meta_alloc(std::size_t bytes) {
  if (bytes > kMetaBlockBytes) return ::operator new(bytes);
  if (g_meta_free != nullptr) {
    MetaBlock* b = g_meta_free;
    g_meta_free = b->next;
    return b;
  }
  return ::operator new(kMetaBlockBytes);
}

void meta_free(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes > kMetaBlockBytes) {
    ::operator delete(p);
    return;
  }
  auto* b = static_cast<MetaBlock*>(p);
  b->next = g_meta_free;
  g_meta_free = b;
}

}  // namespace meshmp::net
