// Good fixture: a source where placement new into caller-owned storage is
// permitted without a suppression comment (see PLACEMENT_NEW_ALLOWED in
// rst_lint.py). Plain new/delete would still be
// flagged here. Never compiled; linted only.

namespace lintfix {

struct Chunk {
  unsigned char bytes[64];
};

struct Node {
  int fanout = 0;
};

Node* CreateInto(Chunk* chunk) {
  return new (chunk->bytes) Node{};
}

void DestroyAt(Node* node) {
  node->~Node();
}

}  // namespace lintfix
