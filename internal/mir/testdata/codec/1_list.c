struct node { int v; struct node *next; };
struct node n0;
struct node *head;
int main(void) {
	head = &n0;
	head->v = 7;
	return head->v;
}
